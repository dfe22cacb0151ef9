// photon-vet runs the photon static-analyzer suite (internal/lint) over the
// module: hotpath-alloc, seeded-rand, locked-blocking, no-wallclock,
// ctx-first, and unused-export. It is CI's compile-time guard for the
// invariants the paper's performance and fault-tolerance claims depend on,
// and for the rule that no code is kept for callers that do not exist.
//
// Usage:
//
//	go run ./cmd/photon-vet ./...
//	go run ./cmd/photon-vet -analyzers hotpath-alloc ./internal/nn
//	go run ./cmd/photon-vet -list
//
// Exit status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"photon/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: photon-vet [-list] [-analyzers a,b] [packages]\n\npackages default to ./...; patterns are module-relative directories\nor import paths, with an optional /... suffix.\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "photon-vet: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	prog, err := lint.Load(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	match := matcher(prog, root, cwd, patterns)

	var findings []lint.Finding
	for _, pkg := range prog.SortedPackages() {
		if !match(pkg.ImportPath) {
			continue
		}
		findings = append(findings, prog.RunPackage(pkg, analyzers)...)
	}
	for _, f := range findings {
		rel, err := filepath.Rel(cwd, f.Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			rel = f.Pos.Filename
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", rel, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "photon-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// matcher resolves package patterns (./..., ./internal/nn, photon/internal/nn,
// photon/...) to an import-path predicate.
func matcher(prog *lint.Program, root, cwd string, patterns []string) func(string) bool {
	type rule struct {
		path      string
		recursive bool
	}
	var rules []rule
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		var ipath string
		if pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "/") {
			abs := pat
			if !filepath.IsAbs(abs) {
				abs = filepath.Join(cwd, pat)
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil || strings.HasPrefix(rel, "..") {
				fmt.Fprintf(os.Stderr, "photon-vet: pattern %q is outside the module\n", pat)
				os.Exit(2)
			}
			if rel == "." {
				ipath = prog.ModPath
			} else {
				ipath = prog.ModPath + "/" + filepath.ToSlash(rel)
			}
		} else {
			ipath = pat
		}
		rules = append(rules, rule{path: ipath, recursive: recursive})
	}
	return func(importPath string) bool {
		for _, r := range rules {
			if importPath == r.path {
				return true
			}
			if r.recursive && (r.path == prog.ModPath && strings.HasPrefix(importPath, prog.ModPath+"/") ||
				strings.HasPrefix(importPath, r.path+"/")) {
				return true
			}
		}
		return false
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "photon-vet: %v\n", err)
	os.Exit(2)
}
