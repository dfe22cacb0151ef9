package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The //photon: annotation grammar. Directives are comments with no space
// after the slashes, like //go: directives, so gofmt preserves them:
//
//	//photon:hotpath        (FuncDecl doc) body must be allocation-free; may
//	                        only call hotpath/allocok/whitelisted functions.
//	//photon:allocok        (FuncDecl doc) callable from hotpath code even
//	                        though it may allocate (amortized cold path).
//	//photon:virtualclock   (package doc)  package opts into no-wallclock.
//	//photon:nolint a,b     (line comment) suppress findings from analyzers
//	                        a,b on this line (trailing) or the next line
//	                        (standalone); bare //photon:nolint suppresses all.
//
// A directive's optional trailing " -- reason" text is ignored by the parser
// but encouraged for reviewers; a suppression of unused-export must give one
// (TestUnusedExportSuppressionsGiveReasons).

const directivePrefix = "//photon:"

// parseDirective splits one comment into a directive verb and its argument,
// returning ok=false for ordinary comments.
func parseDirective(text string) (verb, arg string, ok bool) {
	rest, found := strings.CutPrefix(text, directivePrefix)
	if !found {
		return "", "", false
	}
	verb, arg, _ = strings.Cut(rest, " ")
	arg, _, _ = strings.Cut(arg, "--")
	return verb, strings.TrimSpace(arg), true
}

// indexAnnotations scans pkg's files for //photon: directives, filling the
// package annotation tables consulted by the analyzers.
func (p *Program) indexAnnotations(pkg *Package) {
	pkg.funcAnnot = make(map[*types.Func]FuncAnnot)
	pkg.nolint = make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				if verb, _, ok := parseDirective(c.Text); ok && verb == "virtualclock" {
					pkg.virtualClock = true
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			var ann FuncAnnot
			for _, c := range fd.Doc.List {
				switch verb, _, ok := parseDirective(c.Text); {
				case !ok:
				case verb == "hotpath":
					ann |= AnnotHotpath
				case verb == "allocok":
					ann |= AnnotAllocOk
				}
			}
			if ann != 0 {
				if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
					pkg.funcAnnot[obj] = ann
				}
			}
		}
		// Line-level suppressions. A trailing //photon:nolint applies to its
		// own line; a standalone one applies to the line below it.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, arg, ok := parseDirective(c.Text)
				if !ok || verb != "nolint" {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := pkg.nolint[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					pkg.nolint[pos.Filename] = lines
				}
				names := []string{""} // bare nolint: suppress everything
				if arg != "" {
					names = strings.Split(arg, ",")
					for i := range names {
						names[i] = strings.TrimSpace(names[i])
					}
				}
				lines[pos.Line] = append(lines[pos.Line], names...)
				lines[pos.Line+1] = append(lines[pos.Line+1], names...)
			}
		}
	}
}

// suppressed reports whether analyzer findings at file:line are muted by a
// //photon:nolint directive.
func (pkg *Package) suppressed(analyzer, file string, line int) bool {
	for _, name := range pkg.nolint[file][line] {
		if name == "" || name == analyzer {
			return true
		}
	}
	return false
}
