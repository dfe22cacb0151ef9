//go:build ignore

package unusedexportgood

func useExcluded() { ExcludedOnly() }
