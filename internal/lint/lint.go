package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one analyzer diagnostic, positioned in the source tree.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a single package with whole-program
// context available through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Pass is one (analyzer, package) execution. Report emits a finding unless a
// //photon:nolint directive on the offending line mutes it.
type Pass struct {
	Prog *Program
	Pkg  *Package

	analyzer *Analyzer
	findings *[]Finding
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Pkg.suppressed(p.analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc,
		SeededRand,
		LockedBlocking,
		NoWallclock,
		CtxFirst,
		UnusedExport,
	}
}

// RunPackage executes the given analyzers over one package and returns the
// findings sorted by position.
func (p *Program) RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{Prog: p, Pkg: pkg, analyzer: a, findings: &findings}
		a.Run(pass)
	}
	sortFindings(findings)
	return findings
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
