package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// wantMarker is one `// want "substr"` expectation parsed from a fixture.
type wantMarker struct {
	file   string // base name
	line   int
	substr string
	hit    bool
}

// parseWants scans every .go file in dir for `// want "..."` markers.
func parseWants(t *testing.T, dir string) []*wantMarker {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir %s: %v", dir, err)
	}
	var wants []*wantMarker
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture %s: %v", e.Name(), err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			_, rest, ok := strings.Cut(line, `// want "`)
			if !ok {
				continue
			}
			substr, _, ok := strings.Cut(rest, `"`)
			if !ok {
				t.Fatalf("%s:%d: unterminated want marker", e.Name(), i+1)
			}
			wants = append(wants, &wantMarker{file: e.Name(), line: i + 1, substr: substr})
		}
	}
	return wants
}

// checkFixture loads the fixture dirs (relative to testdata/src) into a fresh
// program, runs one analyzer over them, and matches findings against the
// fixtures' want markers: every marker must be hit by exactly one finding on
// its line, and no finding may go unclaimed.
func checkFixture(t *testing.T, analyzer *Analyzer, dirs ...string) {
	t.Helper()
	prog, err := NewProgram(".")
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	var findings []Finding
	var wants []*wantMarker
	for _, d := range dirs {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(d))
		pkg, err := prog.AddDir(dir)
		if err != nil {
			t.Fatalf("AddDir(%s): %v", dir, err)
		}
		findings = append(findings, prog.RunPackage(pkg, []*Analyzer{analyzer})...)
		wants = append(wants, parseWants(t, dir)...)
	}
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base && w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a finding containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

func TestHotpathAllocFixtures(t *testing.T) {
	checkFixture(t, HotpathAlloc, "hotpathbad", "hotpathgood")
}

func TestSeededRandFixtures(t *testing.T) {
	checkFixture(t, SeededRand, "seededrandbad", "seededrandgood")
}

func TestLockedBlockingFixtures(t *testing.T) {
	checkFixture(t, LockedBlocking, "lockedbad", "lockedgood")
}

func TestNoWallclockFixtures(t *testing.T) {
	checkFixture(t, NoWallclock, "wallclockbad", "wallclockgood")
}

// TestCtxFirstFixtures includes the regression shape of the violation
// photon-vet surfaced on its first run over the repo: an exported Run* API
// in a wire-facing package that did not take a context.
func TestCtxFirstFixtures(t *testing.T) {
	checkFixture(t, CtxFirst, "ctxfirstbad", "ctxfirstbad/internal/serve", "ctxfirstgood/internal/link")
}

func TestUnusedExportFixtures(t *testing.T) {
	checkFixture(t, UnusedExport, "unusedexportbad", "unusedexportgood")
}

// TestModuleClean pins the acceptance invariant that the repo's own tree
// stays analyzer-clean: photon-vet over ./... must report nothing. A
// violation introduced anywhere in the module fails this test with the
// would-be CLI output.
func TestModuleClean(t *testing.T) {
	prog, err := Load(".")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var findings []Finding
	for _, pkg := range prog.SortedPackages() {
		findings = append(findings, prog.RunPackage(pkg, All())...)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("%d findings on the module tree; run `go run ./cmd/photon-vet ./...` locally", len(findings))
	}
}

// TestUnusedExportSuppressionsGiveReasons walks every Go file in the module
// and fails on a //photon:nolint that mutes unused-export (by name, or bare)
// unless its " -- reason" is one of the two the README allows: a seam a test
// injects a fault or fake through, or a reference a test compares a kernel
// against. The analyzer fixtures under testdata are not module code.
func TestUnusedExportSuppressionsGiveReasons(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, arg, ok := parseDirective(c.Text)
				if !ok || verb != "nolint" || (arg != "" && !slices.Contains(strings.Split(strings.ReplaceAll(arg, " ", ""), ","), UnusedExport.Name)) {
					continue
				}
				_, reason, _ := strings.Cut(c.Text, " -- ")
				if !strings.HasPrefix(reason, "test seam: ") && !strings.HasPrefix(reason, "reference implementation: ") {
					t.Errorf("%s: %q mutes unused-export without a \"test seam:\" or \"reference implementation:\" reason", path, c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNolintUnknownAnalyzerStillReports guards the suppression grammar: a
// nolint naming a different analyzer must not mute findings from this one.
func TestNolintUnknownAnalyzerStillReports(t *testing.T) {
	src := `package scratch

import "math/rand"

func draw() int {
	return rand.Intn(3) //photon:nolint hotpath-alloc -- wrong analyzer: must not suppress seeded-rand
}
`
	findings := runScratch(t, "scratch_wrongname", src, SeededRand)
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "global rand source") {
		t.Fatalf("want one global-rand finding, got %v", findings)
	}
}

// TestNolintBareSuppressesAll guards the other half of the grammar: a bare
// //photon:nolint mutes every analyzer on its line.
func TestNolintBareSuppressesAll(t *testing.T) {
	src := `package scratch

import "math/rand"

func draw() int {
	return rand.Intn(3) //photon:nolint
}
`
	if findings := runScratch(t, "scratch_bare", src, SeededRand); len(findings) != 0 {
		t.Fatalf("bare nolint should suppress all analyzers, got %v", findings)
	}
}

// runScratch materializes a one-file scratch package under testdata/src (the
// loader requires packages to sit under the module root), loads it into a
// fresh program, runs one analyzer, and cleans the directory up.
func runScratch(t *testing.T, name, src string, analyzer *Analyzer) []Finding {
	t.Helper()
	dst := filepath.Join("testdata", "src", name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dst) })
	if err := os.WriteFile(filepath.Join(dst, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := prog.AddDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	return prog.RunPackage(pkg, []*Analyzer{analyzer})
}
