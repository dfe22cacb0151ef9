// Package lint is photon-vet's analyzer suite: a dependency-free (go/ast,
// go/parser, go/types, go/importer — no x/tools) static checker that promotes
// the repo's hard-won runtime invariants to whole-program compile-time
// guarantees. The analyzers enforce:
//
//   - hotpath-alloc: functions annotated //photon:hotpath contain no
//     allocating constructs and only call hotpath//photon:allocok functions
//     (checked through the intra-module call graph),
//   - seeded-rand: no global math/rand state, no wall-clock-seeded sources,
//   - locked-blocking: no channel send, link I/O, or time.Sleep while a
//     sync.Mutex is held,
//   - no-wallclock: no time.Now/Since/Sleep in virtual-clock packages
//     (internal/topo and any package annotated //photon:virtualclock),
//   - ctx-first: context.Context parameters come first, and blocking-named
//     exported APIs in fed/link/serve take one (or have a Context sibling),
//   - unused-export: no exported name in internal/ that no non-test code
//     references, and no exported struct field that no non-test code sets.
//
// See the README "Static analysis & invariants" section for the annotation
// grammar and cmd/photon-vet for the CLI driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the program under
// analysis.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	// Annotation tables, built at load time.
	funcAnnot    map[*types.Func]FuncAnnot
	nolint       map[string]map[int][]string // file -> line -> suppressed analyzer names ("" = all)
	virtualClock bool
}

// FuncAnnot is the set of //photon: function annotations.
type FuncAnnot uint8

const (
	// AnnotHotpath marks a function whose body must be allocation-free and
	// whose callees must themselves be hotpath or allocok.
	AnnotHotpath FuncAnnot = 1 << iota
	// AnnotAllocOk marks a function hotpath code may call even though it
	// (or its callees) may allocate — the escape hatch for amortized cold
	// paths such as pool refills and buffer growth.
	AnnotAllocOk
)

// Program is the loaded module: every package parsed, type-checked in
// dependency order, and annotation-indexed.
type Program struct {
	Fset     *token.FileSet
	ModPath  string
	Root     string
	Packages map[string]*Package

	stdImporter types.Importer
	uses        *useIndex // unused-export's index; nil until first use
}

// ModuleRoot walks up from dir to the nearest directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from go.mod.
func modulePath(root string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// NewProgram prepares an empty program rooted at the module containing dir
// (walking up to the nearest go.mod): no packages are loaded yet, so callers
// (golden tests) can AddDir exactly the fixture packages they need instead of
// type-checking the whole module.
func NewProgram(dir string) (*Program, error) {
	root, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return &Program{
		Fset:        token.NewFileSet(),
		ModPath:     modPath,
		Root:        root,
		Packages:    make(map[string]*Package),
		stdImporter: importer.Default(),
	}, nil
}

// Load parses and type-checks every package under root (skipping testdata,
// vendor, and hidden directories), in dependency order, using only the
// standard library toolchain. Test files (_test.go) are not analyzed: the
// invariants guard production paths, and tests legitimately use wall clocks,
// fixed seeds, and blocking helpers.
func Load(root string) (*Program, error) {
	p, err := NewProgram(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(p.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != p.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := p.AddDir(dir); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory under the module root to its import path.
func (p *Program) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(p.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return p.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module root %s", dir, p.Root)
	}
	return p.ModPath + "/" + filepath.ToSlash(rel), nil
}

// AddDir loads one package directory (parsing, resolving module-internal
// imports recursively, type-checking) and returns it. It is how golden tests
// pull fixture packages — which live under testdata/, invisible to Load —
// into an already-loaded program so fixtures can import real module packages.
func (p *Program) AddDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := p.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return p.load(path, dir, nil)
}

// load type-checks the package at path, loading module-internal dependencies
// first. chain tracks the in-progress import stack for cycle detection.
func (p *Program) load(path, dir string, chain []string) (*Package, error) {
	if pkg, ok := p.Packages[path]; ok {
		return pkg, nil
	}
	for _, c := range chain {
		if c == path {
			return nil, fmt.Errorf("import cycle: %s", strings.Join(append(chain, path), " -> "))
		}
	}
	chain = append(chain, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Skip what GOOS/GOARCH excludes by file name or //go:build line.
		if ok, err := build.Default.MatchFile(dir, name); err == nil && !ok {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}

	// Load module-internal dependencies first so type-checking sees them.
	for _, f := range files {
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if ipath != p.ModPath && !strings.HasPrefix(ipath, p.ModPath+"/") {
				continue
			}
			idir := p.Root
			if ipath != p.ModPath {
				idir = filepath.Join(p.Root, filepath.FromSlash(strings.TrimPrefix(ipath, p.ModPath+"/")))
			}
			if _, err := p.load(ipath, idir, chain); err != nil {
				return nil, err
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &progImporter{p: p},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, p.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-check %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	pkg := &Package{
		ImportPath: path,
		Dir:        dir,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
	}
	p.indexAnnotations(pkg)
	p.Packages[path] = pkg
	p.uses = nil
	return pkg, nil
}

// progImporter resolves module-internal imports from the program's package
// map and everything else (the standard library) through go/importer.
type progImporter struct {
	p *Program
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if path == pi.p.ModPath || strings.HasPrefix(path, pi.p.ModPath+"/") {
		pkg, ok := pi.p.Packages[path]
		if !ok {
			return nil, fmt.Errorf("internal package %s not loaded", path)
		}
		return pkg.Pkg, nil
	}
	return pi.p.stdImporter.Import(path)
}

// SortedPackages returns the loaded packages in import-path order.
func (p *Program) SortedPackages() []*Package {
	paths := make([]string, 0, len(p.Packages))
	for path := range p.Packages {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, path := range paths {
		out[i] = p.Packages[path]
	}
	return out
}

// FuncAnnot returns the //photon: annotations on obj's declaration, looked up
// across the whole program — this is what lets the hotpath analyzer follow
// the intra-module call graph across package boundaries.
func (p *Program) FuncAnnot(obj *types.Func) FuncAnnot {
	if obj == nil || obj.Pkg() == nil {
		return 0
	}
	pkg, ok := p.Packages[obj.Pkg().Path()]
	if !ok {
		return 0
	}
	return pkg.funcAnnot[obj]
}

// Internal reports whether path is a package of the module under analysis.
func (p *Program) Internal(path string) bool {
	return path == p.ModPath || strings.HasPrefix(path, p.ModPath+"/")
}
