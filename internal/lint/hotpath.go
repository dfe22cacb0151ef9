package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc enforces the zero-allocation contract established by PR 4's
// training step and PR 6's steady-state decode: a function annotated
// //photon:hotpath may not contain allocating constructs — make/new/append,
// heap-escaping or slice/map composite literals, closures, method values,
// interface boxing, string building, goroutine launches, defers in loops,
// map inserts — and may only call functions that are themselves
// //photon:hotpath, //photon:allocok, or on the small non-allocating stdlib
// whitelist (math, math/bits, sync/atomic, mutex ops, monotonic clock
// reads). Because every hotpath body is checked and every callee must carry
// an annotation, the guarantee composes transitively through the
// intra-module call graph — unlike testing.AllocsPerRun, which only samples
// the call sites a test happens to drive.
var HotpathAlloc = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "//photon:hotpath functions must not allocate and may only call hotpath//photon:allocok functions",
	Run:  runHotpathAlloc,
}

// allowedStdPkgs are stdlib packages whose exported functions are known not
// to allocate: pure math and atomics.
var allowedStdPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allowedStdFuncs are individually vetted non-allocating stdlib functions
// and methods (by types.Func.FullName) that hotpath code legitimately needs:
// mutex ops around ring buffers and free lists, monotonic clock reads for
// span instrumentation, the GOMAXPROCS probe gating parallel dispatch, and
// the processor yield of a spin-wait.
var allowedStdFuncs = map[string]bool{
	"(*sync.Mutex).Lock":           true,
	"(*sync.Mutex).Unlock":         true,
	"(*sync.Mutex).TryLock":        true,
	"(*sync.RWMutex).Lock":         true,
	"(*sync.RWMutex).Unlock":       true,
	"(*sync.RWMutex).RLock":        true,
	"(*sync.RWMutex).RUnlock":      true,
	"time.Now":                     true,
	"time.Since":                   true,
	"(time.Time).Sub":              true,
	"(time.Time).UnixNano":         true,
	"(time.Time).IsZero":           true,
	"(time.Time).After":            true,
	"(time.Time).Before":           true,
	"(time.Duration).Nanoseconds":  true,
	"(time.Duration).Milliseconds": true,
	"(time.Duration).Seconds":      true,
	"runtime.GOMAXPROCS":           true,
	"runtime.Gosched":              true,
	// encoding/binary's fixed-endian accessors write into caller-provided
	// buffers; the ByteOrder values are package singletons, so calls through
	// them never allocate.
	"(encoding/binary.littleEndian).Uint32":    true,
	"(encoding/binary.littleEndian).PutUint32": true,
	"(encoding/binary.littleEndian).Uint64":    true,
	"(encoding/binary.littleEndian).PutUint64": true,
	"(encoding/binary.bigEndian).Uint32":       true,
	"(encoding/binary.bigEndian).PutUint32":    true,
	"(encoding/binary.bigEndian).Uint64":       true,
	"(encoding/binary.bigEndian).PutUint64":    true,
}

func runHotpathAlloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil || pass.Prog.FuncAnnot(obj)&AnnotHotpath == 0 {
				continue
			}
			checkHotpathBody(pass, fd)
		}
	}
}

type hotpathChecker struct {
	pass    *Pass
	info    *types.Info
	decl    *ast.FuncDecl
	called  map[ast.Expr]bool // CallExpr.Fun nodes: selectors here are calls, not method values
	loops   []posRange        // for/range body extents, for defer-in-loop detection
	addrOfs map[ast.Expr]bool // operands of unary & (heap-escape candidates)
}

type posRange struct{ lo, hi token.Pos }

func checkHotpathBody(pass *Pass, fd *ast.FuncDecl) {
	c := &hotpathChecker{
		pass:    pass,
		info:    pass.Pkg.Info,
		decl:    fd,
		called:  make(map[ast.Expr]bool),
		addrOfs: make(map[ast.Expr]bool),
	}
	// Pre-pass: call positions, loop extents, address-taken operands.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			c.called[unparen(x.Fun)] = true
		case *ast.ForStmt:
			c.loops = append(c.loops, posRange{x.Body.Pos(), x.Body.End()})
		case *ast.RangeStmt:
			c.loops = append(c.loops, posRange{x.Body.Pos(), x.Body.End()})
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				c.addrOfs[unparen(x.X)] = true
			}
		}
		return true
	})
	c.walk(fd.Body)
}

func (c *hotpathChecker) inLoop(pos token.Pos) bool {
	for _, r := range c.loops {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

func (c *hotpathChecker) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			c.pass.Report(x.Pos(), "closure literal in hotpath function %s allocates its capture block", c.decl.Name.Name)
			return false
		case *ast.GoStmt:
			c.pass.Report(x.Pos(), "go statement in hotpath function %s allocates a goroutine", c.decl.Name.Name)
			return false
		case *ast.DeferStmt:
			if c.inLoop(x.Pos()) {
				c.pass.Report(x.Pos(), "defer inside a loop in hotpath function %s allocates per iteration", c.decl.Name.Name)
			}
		case *ast.CallExpr:
			if skipArgs := c.call(x); skipArgs {
				return false
			}
		case *ast.SelectorExpr:
			if !c.called[x] {
				if sel := c.info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
					c.pass.Report(x.Pos(), "method value %s in hotpath function %s allocates a bound-method closure", exprString(x), c.decl.Name.Name)
				}
			}
		case *ast.CompositeLit:
			c.compositeLit(x)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(c.info.TypeOf(x)) {
				c.pass.Report(x.Pos(), "string concatenation in hotpath function %s allocates", c.decl.Name.Name)
			}
		case *ast.AssignStmt:
			c.assign(x)
		case *ast.ValueSpec:
			c.valueSpec(x)
		case *ast.ReturnStmt:
			c.returnStmt(x)
		case *ast.SendStmt:
			if ch := c.info.TypeOf(x.Chan); ch != nil {
				if elem, ok := ch.Underlying().(*types.Chan); ok {
					c.box(x.Value.Pos(), elem.Elem(), x.Value, "channel send")
				}
			}
		}
		return true
	})
}

// call validates one call expression: conversions, builtins, then static
// callee legality plus argument boxing. Returns true when the subtree below
// the call should be skipped (panic failure paths).
func (c *hotpathChecker) call(x *ast.CallExpr) (skipArgs bool) {
	fun := unparen(x.Fun)
	if tv, ok := c.info.Types[fun]; ok && tv.IsType() {
		c.conversion(x, tv.Type)
		return false
	}
	if obj := calleeObject(c.info, fun); obj != nil {
		if b, ok := obj.(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				c.pass.Report(x.Pos(), "%s in hotpath function %s allocates", b.Name(), c.decl.Name.Name)
			case "panic":
				// Failure path: a panicking hotpath has already lost the
				// race; don't charge its message construction.
				return true
			}
			return false
		}
		if fn, ok := obj.(*types.Func); ok {
			c.staticCall(x, fn)
			return false
		}
	}
	// No static callee: a call through a function-typed variable or field.
	c.pass.Report(x.Pos(), "dynamic call through function value %s in hotpath function %s cannot be verified allocation-free", exprString(fun), c.decl.Name.Name)
	return false
}

func (c *hotpathChecker) staticCall(x *ast.CallExpr, fn *types.Func) {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		c.pass.Report(x.Pos(), "call through interface method %s in hotpath function %s cannot be verified allocation-free", fn.Name(), c.decl.Name.Name)
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return // universe-scope (error.Error etc. handled above)
	}
	if c.pass.Prog.Internal(pkg.Path()) {
		ann := c.pass.Prog.FuncAnnot(fn)
		if ann&(AnnotHotpath|AnnotAllocOk) == 0 {
			c.pass.Report(x.Pos(), "hotpath function %s calls %s which is neither //photon:hotpath nor //photon:allocok", c.decl.Name.Name, fn.FullName())
			return
		}
		if ann&AnnotAllocOk != 0 {
			return // allocok callee: the call site is exempt, boxing included
		}
	} else {
		if pkg.Path() == "math/rand" && sig != nil && sig.Recv() != nil {
			// Methods on an injected *rand.Rand (sampling hot loops) do not
			// allocate; package-level funcs are banned by seeded-rand anyway.
		} else if !allowedStdPkgs[pkg.Path()] && !allowedStdFuncs[fn.FullName()] {
			c.pass.Report(x.Pos(), "hotpath function %s calls %s outside the non-allocating stdlib whitelist", c.decl.Name.Name, fn.FullName())
			return
		}
	}
	c.callArgs(x, sig)
}

// callArgs flags interface boxing of arguments and variadic slice
// construction against the callee signature.
func (c *hotpathChecker) callArgs(x *ast.CallExpr, sig *types.Signature) {
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range x.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if x.Ellipsis != token.NoPos {
				pt = sig.Params().At(np - 1).Type()
			} else {
				if i == np-1 {
					c.pass.Report(arg.Pos(), "variadic call in hotpath function %s allocates the argument slice", c.decl.Name.Name)
				}
				if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt != nil {
			c.box(arg.Pos(), pt, arg, "argument")
		}
	}
}

func (c *hotpathChecker) conversion(x *ast.CallExpr, dst types.Type) {
	if len(x.Args) != 1 {
		return
	}
	src := c.info.TypeOf(x.Args[0])
	if src == nil {
		return
	}
	if types.IsInterface(dst) && !types.IsInterface(src) && !isUntypedNil(c.info, x.Args[0]) {
		c.pass.Report(x.Pos(), "conversion to interface %s in hotpath function %s boxes its operand", dst.String(), c.decl.Name.Name)
		return
	}
	if stringBytesConversion(dst, src) {
		c.pass.Report(x.Pos(), "string/[]byte conversion in hotpath function %s copies and allocates", c.decl.Name.Name)
	}
}

func (c *hotpathChecker) compositeLit(x *ast.CompositeLit) {
	t := c.info.TypeOf(x)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.pass.Report(x.Pos(), "slice literal in hotpath function %s allocates", c.decl.Name.Name)
	case *types.Map:
		c.pass.Report(x.Pos(), "map literal in hotpath function %s allocates", c.decl.Name.Name)
	default:
		if c.addrOfs[x] {
			c.pass.Report(x.Pos(), "&composite literal in hotpath function %s escapes to the heap", c.decl.Name.Name)
		}
	}
}

func (c *hotpathChecker) assign(x *ast.AssignStmt) {
	if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(c.info.TypeOf(x.Lhs[0])) {
		c.pass.Report(x.Pos(), "string += in hotpath function %s allocates", c.decl.Name.Name)
		return
	}
	// Map inserts can trigger bucket growth; hotpath code must pre-size maps
	// on the cold path.
	for _, lhs := range x.Lhs {
		// Note: ast.Unparen, not this package's unparen — the latter also
		// strips IndexExpr (generic instantiation on callees), which would
		// collapse m[k] to m here.
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := c.info.TypeOf(idx.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.pass.Report(lhs.Pos(), "map insert in hotpath function %s may allocate on growth", c.decl.Name.Name)
				}
			}
		}
	}
	if x.Tok != token.ASSIGN || len(x.Lhs) != len(x.Rhs) {
		return
	}
	for i := range x.Lhs {
		if lt := c.info.TypeOf(x.Lhs[i]); lt != nil {
			c.box(x.Rhs[i].Pos(), lt, x.Rhs[i], "assignment")
		}
	}
}

func (c *hotpathChecker) valueSpec(x *ast.ValueSpec) {
	if x.Type == nil {
		return
	}
	dt := c.info.TypeOf(x.Type)
	if dt == nil {
		return
	}
	for _, v := range x.Values {
		c.box(v.Pos(), dt, v, "declaration")
	}
}

func (c *hotpathChecker) returnStmt(x *ast.ReturnStmt) {
	if c.decl.Type.Results == nil || len(x.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, field := range c.decl.Type.Results.List {
		t := c.info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(x.Results) != len(resultTypes) {
		return // naked multi-value return of a call; boxing happens in callee
	}
	for i, r := range x.Results {
		if resultTypes[i] != nil {
			c.box(r.Pos(), resultTypes[i], r, "return")
		}
	}
}

// box flags storing a concrete value into an interface-typed destination.
func (c *hotpathChecker) box(pos token.Pos, dst types.Type, src ast.Expr, what string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	if _, isTP := dst.(*types.TypeParam); isTP {
		return
	}
	st := c.info.TypeOf(src)
	if st == nil || types.IsInterface(st) || isUntypedNil(c.info, src) {
		return
	}
	c.pass.Report(pos, "%s boxes %s into interface %s in hotpath function %s", what, st.String(), dst.String(), c.decl.Name.Name)
}

// Shared AST/type helpers.

func unparen(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr: // generic instantiation
			if _, isIdent := x.X.(*ast.Ident); isIdent {
				e = x.X
			} else if _, isSel := x.X.(*ast.SelectorExpr); isSel {
				e = x.X
			} else {
				return e
			}
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// calleeObject resolves the object a call expression's Fun refers to, or nil
// for dynamic calls.
func calleeObject(info *types.Info, fun ast.Expr) types.Object {
	switch f := unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return true
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func stringBytesConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStringType(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// exprString renders a small expression for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Index) + "]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.BasicLit:
		return x.Value
	}
	return fmt.Sprintf("<%T>", e)
}
