package unusedexportbad

import "testing"

func TestTestedOnly(t *testing.T) { TestedOnly() }
