package lint

import (
	"go/ast"
	"go/build"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// UnusedExport keeps code with no caller out of the root package and
// internal/ (bar testutil): an
// exported name or method no non-test file references (its own package
// counts, its own declaration does not), and an exported struct field no
// non-test code writes. A method satisfying a used interface, String, Error,
// a tagged field (encoding/json writes it), and any name appearing in a
// build-excluded non-test file count as used.
var UnusedExport = &Analyzer{
	Name: "unused-export",
	Doc:  "exported internal/ names no non-test code references, and exported fields no non-test code sets",
	Run:  runUnusedExport,
}

// useIndex is the whole-program fact table unused-export consults.
type useIndex struct {
	used     map[types.Object]bool
	written  map[*types.Var]bool
	ifaces   map[*types.Interface]bool
	excluded map[string]bool // identifiers in build-excluded non-test files
}

func runUnusedExport(pass *Pass) {
	if path := pass.Pkg.ImportPath; path != pass.Prog.ModPath && !strings.HasPrefix(path, pass.Prog.ModPath+"/internal/") || path == pass.Prog.ModPath+"/internal/testutil" {
		return
	}
	ix := pass.Prog.useIndex()
	dead := func(obj types.Object) bool {
		return obj.Exported() && !ix.used[obj] && !ix.excluded[obj.Name()]
	}
	scope := pass.Pkg.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if dead(obj) {
			pass.Report(obj.Pos(), "exported name %s has no non-test caller; delete it", name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if dead(m) && m.Name() != "String" && m.Name() != "Error" && !ix.satisfies(named, m.Name()) {
				pass.Report(m.Pos(), "exported method %s.%s has no non-test caller; delete it", name, m.Name())
			}
		}
		st, _ := named.Underlying().(*types.Struct)
		if st == nil || !tn.Exported() {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Exported() && !f.Embedded() && st.Tag(i) == "" && !ix.written[f] && !ix.excluded[f.Name()] {
				pass.Report(f.Pos(), "field %s.%s is never set by non-test code; make it a constant or delete it", name, f.Name())
			}
		}
	}
}

// satisfies reports whether named (or a pointer to it) implements a used
// interface that declares method.
func (ix *useIndex) satisfies(named *types.Named, method string) bool {
	for iface := range ix.ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// useIndex returns the use index over every loaded package, building it on
// first use; loading another package invalidates it.
func (p *Program) useIndex() *useIndex {
	if p.uses != nil {
		return p.uses
	}
	ix := &useIndex{
		used:     make(map[types.Object]bool),
		written:  make(map[*types.Var]bool),
		ifaces:   make(map[*types.Interface]bool),
		excluded: make(map[string]bool),
	}
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			ix.ifaces[iface] = true
		}
	}
	for _, pkg := range p.Packages {
		info := pkg.Info
		for _, tv := range info.Types {
			addIface(tv.Type)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				// A declaration's receiver and self-references are not uses.
				var self types.Object
				var recv *ast.FieldList
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, recv = info.Defs[fd.Name], fd.Recv
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FieldList:
						return n != recv
					case *ast.TypeSpec:
						self = info.Defs[n.Name]
					case *ast.Ident:
						if obj := info.Uses[n]; obj != nil && obj != self {
							ix.used[obj] = true
						}
					case *ast.CallExpr:
						// Passing a value as an interface parameter uses it.
						if sig, ok := info.TypeOf(n.Fun).(*types.Signature); ok {
							for i := 0; i < sig.Params().Len(); i++ {
								addIface(sig.Params().At(i).Type())
							}
						}
					case *ast.CompositeLit:
						ix.markLiteral(info, n)
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							ix.markWrite(info, lhs)
						}
					case *ast.IncDecStmt:
						ix.markWrite(info, n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							ix.markWrite(info, n.X)
						}
					}
					return true
				})
			}
		}
		ix.indexExcluded(pkg.Dir)
	}
	p.uses = ix
	return ix
}

// markLiteral records the fields a composite literal sets: its keys, or
// every field when the literal is positional.
func (ix *useIndex) markLiteral(info *types.Info, lit *ast.CompositeLit) {
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				ix.markField(info.Uses[key])
			}
		} else if st, ok := info.TypeOf(lit).Underlying().(*types.Struct); ok {
			ix.markField(st.Field(i))
		}
	}
}

// markWrite records the field an assignment target, ++/--, or & selects.
func (ix *useIndex) markWrite(info *types.Info, e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		ix.markField(info.Uses[sel.Sel])
	}
}

func (ix *useIndex) markField(obj types.Object) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		ix.written[v.Origin()] = true
	}
}

// indexExcluded records every identifier in dir's non-test files that the
// loader skipped by build constraint.
func (ix *useIndex) indexExcluded(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		name := e.Name()
		if ok, _ := build.Default.MatchFile(dir, name); ok || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, _ := os.ReadFile(filepath.Join(dir, name))
		var s scanner.Scanner
		s.Init(token.NewFileSet().AddFile(name, -1, len(src)), src, nil, 0)
		for _, tok, lit := s.Scan(); tok != token.EOF; _, tok, lit = s.Scan() {
			if tok == token.IDENT {
				ix.excluded[lit] = true
			}
		}
	}
}
