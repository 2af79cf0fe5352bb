// Package allocfree statically verifies that functions annotated
// //cgplint:hotpath are transitively free of heap allocation, turning
// the repository's AllocsPerRun runtime gates (the PR 3 event loop,
// the struct-of-arrays caches, the batched replay decoder, the
// attribution fast path) into compile-time guarantees with precise
// positions: a runtime gate catches a regression only on the inputs a
// test happens to replay, while this pass rejects the allocating
// construct itself, on every path.
//
// # What counts as a hazard
//
// Inside a hot function (or anything it can reach through resolvable
// calls) the pass flags: make/new/append and slice or map composite
// literals; &T{...} literals; map writes and map iteration (growth and
// runtime iterator); non-constant string concatenation and
// string<->[]byte conversions; defer and go statements; function
// literals and method values (closure allocation); boxing a concrete
// value into an interface (call arguments, assignments, returns,
// conversions); and calls the engine cannot resolve. Subtrees under
// panic(...) are skipped: a panicking hot path is already dead, and
// the panic message is allowed to allocate. Value-typed composite
// literals (lineMeta{...}) are fine — they live in registers or on the
// stack.
//
// # Traversal and summaries
//
// Calls resolve through the dataflow engine. In-package callees are
// walked; in-module cross-package callees are consulted through the
// "fn:<name>" facts their own package exported (verdict "clean",
// "cold", or "dirty:<witness>"), so the check composes across the
// build graph without whole-program loading. Standard-library callees
// have no facts and are rejected except for a small allowlist of
// provably non-allocating kernels (math/bits, binary.Uvarint/Varint).
//
// //cgplint:coldpath <reason> stops the traversal at deliberate
// amortized-growth helpers (ring doubling, first-touch table rows);
// the mandatory reason documents why the allocation is excused.
//
// # Roots beyond annotations
//
// Hot paths cross dynamic dispatch in two sanctioned ways, both of
// which shift the verification site rather than abandoning it:
//
//   - An interface method marked //cgplint:hotpath (the event hooks
//     of prefetch.Prefetcher) makes every in-module implementation an
//     implicit root, verified in its own package via the "hotiface:"
//     fact.
//   - A named func type marked //cgplint:hotpath (prefetch.Issue)
//     makes every function value bound to it an implicit root at the
//     binding site: literals are walked in place, method values and
//     function references become roots, and a binding the engine
//     cannot resolve is itself a finding.
//
// Calls through values of such a hot func type are therefore safe by
// construction and not flagged. Calls through ordinary func-typed
// parameters are recorded in the function's summary ("pcall=i"), and
// every call site passing that parameter must supply a verifiable
// function value. Types and functions declared in _test.go files are
// exempt throughout — test doubles are not hot paths.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cgp/internal/analysis"
	"cgp/internal/analysis/dataflow"
)

// Analyzer is the allocfree pass.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "verify //cgplint:hotpath functions are transitively free of heap " +
		"allocation, interface boxing, map iteration, defer, and closure " +
		"capture; stop at //cgplint:coldpath <reason> amortized helpers",
	Run: run,
}

// externAllow lists external functions known not to allocate: pure
// bit-twiddling and in-place varint decoding used by the replay hot
// kernel. A nil set allows the whole package. Everything else outside
// the module is a hazard — the pass cannot see its body, and "probably
// fine" is exactly what the runtime gates were.
var externAllow = map[string]map[string]bool{
	"math/bits":       nil,
	"encoding/binary": {"Uvarint": true, "Varint": true},
}

type hazard struct {
	pos token.Pos
	msg string
}

type edge struct {
	pos    token.Pos
	callee *types.Func
}

// funcInfo is one function's engine summary. Synthetic infos (fn ==
// nil) represent function literals bound to hot func types.
type funcInfo struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	hot     bool
	cold    bool
	hazards []hazard
	edges   []edge
	pcalls  map[int]bool // parameter indices called as func values

	verdict string // memoized transitive verdict
	walking bool   // cycle guard
}

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	infos map[*types.Func]*funcInfo
	byKey map[string]*funcInfo
}

func run(pass *analysis.Pass) error {
	if !analysis.InDeterministicDomain(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{
		pass:  pass,
		decls: dataflow.DeclIndex(pass.TypesInfo, pass.Files),
		infos: map[*types.Func]*funcInfo{},
		byKey: map[string]*funcInfo{},
	}
	c.exportTypeDirectives()

	// Phase 1: directives and parameter-call shapes for every declared
	// non-test function, so phase 2 can consult them in any order.
	for fn, decl := range c.decls {
		if pass.InTestFile(decl.Pos()) {
			continue
		}
		fi := &funcInfo{fn: fn, decl: decl, pcalls: map[int]bool{}}
		if ok, _ := analysis.Directive(decl.Doc, analysis.DirHotpath); ok {
			fi.hot = true
		}
		if ok, _ := analysis.Directive(decl.Doc, analysis.DirColdpath); ok {
			fi.cold = true
			if fi.hot {
				pass.Reportf(decl.Pos(), "%s is marked both hotpath and coldpath", dataflow.FuncKey(fn))
			}
		}
		c.collectPcalls(fi)
		c.infos[fn] = fi
		c.byKey[dataflow.FuncKey(fn)] = fi
	}

	// Phase 2: local hazard + edge scan.
	for _, fi := range c.infos {
		if !fi.cold && fi.decl.Body != nil {
			c.scan(fi, fi.decl.Body, fi.decl)
		}
	}

	// Phase 3: export transitive verdicts for dependent packages.
	keys := make([]string, 0, len(c.byKey))
	for k := range c.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pass.ExportFact("fn:"+k, c.factValue(c.byKey[k]))
	}

	// Phase 4: walk the hot closure and report.
	c.report()
	return nil
}

// exportTypeDirectives finds //cgplint:hotpath on interface methods
// and named func types declared in this package and exports the
// hotiface:/hotfunc: facts implementations and bindings are checked
// against.
func (c *checker) exportTypeDirectives() {
	pass := c.pass
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				switch tt := ts.Type.(type) {
				case *ast.InterfaceType:
					var hotMethods []string
					for _, m := range tt.Methods.List {
						if len(m.Names) == 0 {
							continue // embedded interface
						}
						if ok, _ := analysis.FieldDirective(m, analysis.DirHotpath); ok {
							for _, n := range m.Names {
								hotMethods = append(hotMethods, n.Name)
							}
						}
					}
					if len(hotMethods) > 0 {
						pass.ExportFact("hotiface:"+ts.Name.Name, strings.Join(hotMethods, ","))
					}
				case *ast.FuncType:
					hot, _ := analysis.Directive(ts.Doc, analysis.DirHotpath)
					if !hot && len(gd.Specs) == 1 {
						hot, _ = analysis.Directive(gd.Doc, analysis.DirHotpath)
					}
					if hot {
						pass.ExportFact("hotfunc:"+ts.Name.Name, "1")
					}
					_ = tt
				}
			}
		}
	}
}

// collectPcalls records which parameters of fi are invoked as func
// values — the "pcall" half of its summary. Parameters of a hot named
// func type are excluded: those calls are safe by construction.
func (c *checker) collectPcalls(fi *funcInfo) {
	if fi.decl.Body == nil {
		return
	}
	params := paramVars(c.pass, fi.decl)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := dataflow.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		for i, p := range params {
			if p != nil && obj == p && !c.isHotFuncType(p.Type()) {
				fi.pcalls[i] = true
			}
		}
		return true
	})
}

// paramVars returns the declared parameter objects in order.
func paramVars(pass *analysis.Pass, decl *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if decl == nil || decl.Type.Params == nil {
		return out
	}
	for _, f := range decl.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, n := range f.Names {
			v, _ := pass.TypesInfo.Defs[n].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// hazardf records one local hazard unless an ignore directive excuses
// it (the excusal then also keeps it out of the exported summary).
func (c *checker) hazardf(fi *funcInfo, pos token.Pos, format string, args ...any) {
	if c.pass.Excused(pos) {
		return
	}
	fi.hazards = append(fi.hazards, hazard{pos, fmt.Sprintf(format, args...)})
}

// isHotFuncType reports whether t is a named func type annotated
// hotpath (locally or via fact).
func (c *checker) isHotFuncType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if _, ok := n.Underlying().(*types.Signature); !ok {
		return false
	}
	_, found := c.pass.Fact(n.Obj().Pkg().Path(), "hotfunc:"+n.Obj().Name())
	return found
}

// isHotIfaceMethod reports whether the interface method fn declared on
// recv is annotated hotpath.
func (c *checker) isHotIfaceMethod(recv types.Type, fn *types.Func) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	v, found := c.pass.Fact(n.Obj().Pkg().Path(), "hotiface:"+n.Obj().Name())
	if !found {
		return false
	}
	for _, m := range strings.Split(v, ",") {
		if m == fn.Name() {
			return true
		}
	}
	return false
}

// inModule reports whether pkg is part of this module.
func inModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == analysis.ModulePath || strings.HasPrefix(p, analysis.ModulePath+"/")
}

// scan walks one function body (or a hot-bound literal's body),
// recording hazards and call edges into fi. decl supplies parameter
// and result context; nil for literals.
func (c *checker) scan(fi *funcInfo, body ast.Node, decl *ast.FuncDecl) {
	info := c.pass.TypesInfo
	params := paramVars(c.pass, decl)
	var results *types.Tuple
	if decl != nil {
		if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
			results = fn.Type().(*types.Signature).Results()
		}
	}
	// litBodies are function literals whose bodies must be walked hot:
	// passed to a parameter the callee invokes.
	litBodies := map[*ast.FuncLit]bool{}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			c.scanCall(fi, v, params, litBodies)
			// Walk operands ourselves: descending into v.Fun would
			// misread every method call's selector as a method value.
			switch dataflow.Unparen(v.Fun).(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				ast.Inspect(v.Fun, walk)
			}
			kind, _, builtin := dataflow.Classify(info, v)
			if kind == dataflow.KindBuiltin && builtin == "panic" {
				return false // dead on the hot path; message may allocate
			}
			for _, a := range v.Args {
				if lit, ok := dataflow.Unparen(a).(*ast.FuncLit); ok {
					c.hazardf(fi, lit.Pos(), "function literal allocates its closure on the hot path")
					if litBodies[lit] {
						ast.Inspect(lit.Body, walk)
					}
					continue
				}
				ast.Inspect(a, walk)
			}
			return false
		case *ast.FuncLit:
			c.hazardf(fi, v.Pos(), "function literal allocates its closure on the hot path")
			return false
		case *ast.DeferStmt:
			c.hazardf(fi, v.Pos(), "defer allocates a frame on the hot path")
			return false
		case *ast.GoStmt:
			c.hazardf(fi, v.Pos(), "go statement spawns a goroutine on the hot path")
			return false
		case *ast.RangeStmt:
			if t := info.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					c.hazardf(fi, v.Pos(), "map iteration allocates its iterator on the hot path")
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(v); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					c.hazardf(fi, v.Pos(), "slice literal allocates on the hot path")
				case *types.Map:
					c.hazardf(fi, v.Pos(), "map literal allocates on the hot path")
				}
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if lit, ok := dataflow.Unparen(v.X).(*ast.CompositeLit); ok {
					c.hazardf(fi, v.Pos(), "&composite literal allocates on the hot path")
					for _, el := range lit.Elts {
						ast.Inspect(el, walk)
					}
					return false
				}
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD {
				if t, ok := info.TypeOf(v).(*types.Basic); ok && t.Info()&types.IsString != 0 {
					if tv, ok := info.Types[v]; !ok || tv.Value == nil {
						c.hazardf(fi, v.Pos(), "string concatenation allocates on the hot path")
					}
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := dataflow.Unparen(v.X).(*ast.IndexExpr); ok {
				if t := info.TypeOf(ix.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						c.hazardf(fi, ix.Pos(), "map write may grow the table on the hot path")
					}
				}
			}
		case *ast.AssignStmt:
			for _, l := range v.Lhs {
				if ix, ok := dataflow.Unparen(l).(*ast.IndexExpr); ok {
					if t := info.TypeOf(ix.X); t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							c.hazardf(fi, ix.Pos(), "map write may grow the table on the hot path")
						}
					}
				}
			}
			if len(v.Lhs) == len(v.Rhs) {
				for i := range v.Lhs {
					c.checkBox(fi, v.Rhs[i], info.TypeOf(v.Lhs[i]), "assignment")
				}
			}
		case *ast.ReturnStmt:
			if results != nil && len(v.Results) == results.Len() {
				for i, r := range v.Results {
					c.checkBox(fi, r, results.At(i).Type(), "return")
				}
			}
		case *ast.SelectorExpr:
			// A method value read outside a call allocates its bound
			// closure. Call selectors never reach here — the CallExpr
			// case consumes them.
			if sel, ok := info.Selections[v]; ok && sel.Kind() == types.MethodVal {
				c.hazardf(fi, v.Pos(), "method value allocates its binding on the hot path")
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// scanCall classifies one call inside a hot-scanned body and records
// the hazard or edge it implies. Argument subtrees are walked by the
// caller.
func (c *checker) scanCall(fi *funcInfo, call *ast.CallExpr, params []*types.Var, litBodies map[*ast.FuncLit]bool) {
	info := c.pass.TypesInfo
	kind, callee, builtin := dataflow.Classify(info, call)
	switch kind {
	case dataflow.KindConversion:
		c.checkConversion(fi, call)
	case dataflow.KindBuiltin:
		switch builtin {
		case "make":
			c.hazardf(fi, call.Pos(), "make allocates on the hot path")
		case "new":
			c.hazardf(fi, call.Pos(), "new allocates on the hot path")
		case "append":
			c.hazardf(fi, call.Pos(), "append may grow its backing array on the hot path")
		}
	case dataflow.KindCall:
		c.checkArgs(fi, call, callee.Type())
		c.checkPcallArgs(fi, call, callee, litBodies)
		if inModule(callee.Pkg()) {
			fi.edges = append(fi.edges, edge{call.Pos(), callee})
			return
		}
		if callee.Pkg() == nil {
			return // error.Error and friends: no home package
		}
		allow, ok := externAllow[callee.Pkg().Path()]
		if !ok || (allow != nil && !allow[callee.Name()]) {
			c.hazardf(fi, call.Pos(), "call to external %s: allocation behavior unknown on the hot path",
				dataflow.QualifiedKey(callee))
		}
	default: // KindDynamic
		if callee != nil {
			// Interface dispatch: sanctioned only through a hotpath-
			// annotated interface method, whose implementations are
			// verified in their own packages.
			if sel, ok := dataflow.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok && c.isHotIfaceMethod(s.Recv(), callee) {
					c.checkArgs(fi, call, callee.Type())
					return
				}
			}
			c.hazardf(fi, call.Pos(), "interface dispatch to %s is unresolvable on the hot path (mark the interface method //cgplint:hotpath to verify implementations)",
				callee.Name())
			return
		}
		// Call through a func value.
		if t := info.TypeOf(call.Fun); t != nil {
			if c.isHotFuncType(t) {
				c.checkArgs(fi, call, t)
				return // bindings to hot func types are verified where created
			}
		}
		if id, ok := dataflow.Unparen(call.Fun).(*ast.Ident); ok {
			obj := info.Uses[id]
			for _, p := range params {
				if p != nil && obj == p {
					return // pcall: every call site supplies a verified value
				}
			}
		}
		c.hazardf(fi, call.Pos(), "call through unresolvable func value on the hot path")
	}
}

// checkConversion flags allocating conversions: string <-> []byte /
// []rune, and boxing into an interface type.
func (c *checker) checkConversion(fi *funcInfo, call *ast.CallExpr) {
	info := c.pass.TypesInfo
	dst := info.TypeOf(call)
	src := info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isCharSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	if (isStr(dst) && isCharSlice(src)) || (isCharSlice(dst) && isStr(src)) {
		c.hazardf(fi, call.Pos(), "string conversion copies on the hot path")
	}
	c.checkBox(fi, call.Args[0], dst, "conversion")
}

// checkBox flags boxing a concrete value into an interface slot.
func (c *checker) checkBox(fi *funcInfo, e ast.Expr, dst types.Type, what string) {
	if dst == nil {
		return
	}
	if _, ok := dst.(*types.TypeParam); ok {
		// A type parameter's underlying type is its constraint
		// interface, but instantiating a generic with a concrete type
		// argument never boxes (cache.Cache[P].Insert with a struct
		// payload compiles to a direct store). An instantiation whose
		// argument really is an interface passes interface-typed values
		// here, which the interface-to-interface check below skips
		// anyway.
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	t := c.pass.TypeOf(e)
	if t == nil {
		return
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return
	}
	c.hazardf(fi, e.Pos(), "%s boxes %s into an interface on the hot path", what, t)
}

// checkArgs flags interface boxing at argument positions, including
// the variadic tail. ftype is the callee's func or signature type.
func (c *checker) checkArgs(fi *funcInfo, call *ast.CallExpr, ftype types.Type) {
	sig, ok := ftype.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	if np == 0 {
		return
	}
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				pt = sig.Params().At(np - 1).Type() // s... passes the slice itself
			} else if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		c.checkBox(fi, a, pt, "argument")
	}
}

// checkPcallArgs enforces the call-site half of the pcall contract:
// arguments feeding parameters the callee invokes must be verifiable
// function values. Literals are queued for a hot walk in place;
// function and method references become traversal edges; anything
// opaque is a finding.
func (c *checker) checkPcallArgs(fi *funcInfo, call *ast.CallExpr, callee *types.Func, litBodies map[*ast.FuncLit]bool) {
	pcalls := c.calleePcalls(callee)
	if len(pcalls) == 0 {
		return
	}
	for i := range pcalls {
		if i >= len(call.Args) {
			continue
		}
		a := dataflow.Unparen(call.Args[i])
		if t := c.pass.TypesInfo.TypeOf(a); t != nil && c.isHotFuncType(t) {
			continue // verified at the value's creation site
		}
		if lit, ok := a.(*ast.FuncLit); ok {
			litBodies[lit] = true
			continue
		}
		if fn := dataflow.FuncValue(c.pass.TypesInfo, a); fn != nil {
			fi.edges = append(fi.edges, edge{a.Pos(), fn})
			continue
		}
		c.hazardf(fi, a.Pos(), "unverifiable func value passed to %s, which calls it on the hot path",
			dataflow.FuncKey(callee))
	}
}

// calleePcalls returns the parameter indices callee invokes, from the
// local summary or its package's fn: fact.
func (c *checker) calleePcalls(callee *types.Func) map[int]bool {
	if fi, ok := c.infos[callee]; ok {
		return fi.pcalls
	}
	if callee.Pkg() == nil || !inModule(callee.Pkg()) || callee.Pkg().Path() == c.pass.Pkg.Path() {
		return nil
	}
	v, ok := c.pass.Fact(callee.Pkg().Path(), "fn:"+dataflow.FuncKey(callee))
	if !ok {
		return nil
	}
	out := map[int]bool{}
	for _, part := range strings.Split(v, ";") {
		if rest, found := strings.CutPrefix(part, "pcall="); found {
			for _, s := range strings.Split(rest, ",") {
				var i int
				if _, err := fmt.Sscanf(s, "%d", &i); err == nil {
					out[i] = true
				}
			}
		}
	}
	return out
}

// verdict computes the transitive allocfree verdict of one in-package
// function: "clean", "cold", or "dirty:<witness>".
func (c *checker) verdict(fi *funcInfo) string {
	if fi.verdict != "" {
		return fi.verdict
	}
	if fi.cold {
		fi.verdict = "cold"
		return fi.verdict
	}
	if fi.walking {
		return "clean" // optimistic on cycles; hazards surface on the cycle's own nodes
	}
	fi.walking = true
	defer func() { fi.walking = false }()
	if len(fi.hazards) > 0 {
		fi.verdict = "dirty:" + witness(c.pass.Fset, fi.hazards[0])
		return fi.verdict
	}
	for _, e := range fi.edges {
		if v, msg := c.calleeVerdict(e); v == "dirty" {
			fi.verdict = "dirty:" + msg
			return fi.verdict
		}
	}
	fi.verdict = "clean"
	return fi.verdict
}

// calleeVerdict resolves one edge to ("clean"|"cold"|"dirty", witness).
func (c *checker) calleeVerdict(e edge) (string, string) {
	if fi, ok := c.infos[e.callee]; ok {
		v := c.verdict(fi)
		if w, ok := strings.CutPrefix(v, "dirty:"); ok {
			return "dirty", "calls " + dataflow.FuncKey(e.callee) + ", which " + w
		}
		return v, ""
	}
	pkg := e.callee.Pkg()
	if pkg == nil {
		return "clean", "" // error.Error and friends
	}
	if pkg.Path() == c.pass.Pkg.Path() {
		// Same package but no scanned declaration: a test-file helper.
		// Test code is exempt, but a hot path must not depend on it.
		return "dirty", "calls " + dataflow.FuncKey(e.callee) + ", which is declared in a test file"
	}
	if !inModule(pkg) {
		allow, ok := externAllow[pkg.Path()]
		if ok && (allow == nil || allow[e.callee.Name()]) {
			return "clean", ""
		}
		return "dirty", "calls external " + dataflow.QualifiedKey(e.callee)
	}
	v, ok := c.pass.Fact(pkg.Path(), "fn:"+dataflow.FuncKey(e.callee))
	if !ok {
		return "dirty", "calls " + dataflow.QualifiedKey(e.callee) + ", which has no allocfree summary"
	}
	v = strings.SplitN(v, ";", 2)[0]
	if w, ok := strings.CutPrefix(v, "dirty:"); ok {
		return "dirty", "calls " + dataflow.QualifiedKey(e.callee) + ", which " + w
	}
	return v, ""
}

// factValue encodes fi's exported summary.
func (c *checker) factValue(fi *funcInfo) string {
	v := c.verdict(fi)
	if len(fi.pcalls) > 0 {
		idx := make([]int, 0, len(fi.pcalls))
		for i := range fi.pcalls {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		parts := make([]string, len(idx))
		for i, n := range idx {
			parts[i] = fmt.Sprint(n)
		}
		v += ";pcall=" + strings.Join(parts, ",")
	}
	return v
}

// witness renders a hazard as a compact position-tagged phrase for
// cross-package diagnostics. Semicolons are reserved by the fact
// encoding.
func witness(fset *token.FileSet, h hazard) string {
	p := fset.Position(h.pos)
	file := p.Filename
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return strings.ReplaceAll(fmt.Sprintf("%s (%s:%d)", h.msg, file, p.Line), ";", ",")
}

// report walks the hot closure from every root and reports the local
// hazards of each reachable in-package function, plus dirty verdicts
// at call sites that cross into other packages.
func (c *checker) report() {
	seen := map[*funcInfo]bool{}
	var queue []*funcInfo
	push := func(fi *funcInfo) {
		if fi != nil && !seen[fi] && !fi.cold {
			seen[fi] = true
			queue = append(queue, fi)
		}
	}
	for _, fi := range c.infos {
		if fi.hot {
			push(fi)
		}
	}
	c.pushIfaceImpls(push)
	c.pushHotBindings(push)

	reported := map[token.Pos]bool{}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, h := range fi.hazards {
			if !reported[h.pos] {
				reported[h.pos] = true
				c.pass.Report(analysis.Diagnostic{Pos: h.pos, Message: h.msg})
			}
		}
		for _, e := range fi.edges {
			if callee, ok := c.infos[e.callee]; ok {
				push(callee)
				continue
			}
			if v, msg := c.calleeVerdict(e); v == "dirty" && !reported[e.pos] {
				reported[e.pos] = true
				c.pass.Reportf(e.pos, "hot path %s", msg)
			}
		}
	}
}

// pushIfaceImpls makes every in-package implementation of a hot
// interface method an implicit root: dynamic dispatch through the
// annotated interface may land on it from a hot path. Types declared
// in test files never enter c.infos, so test doubles stay exempt.
func (c *checker) pushIfaceImpls(push func(*funcInfo)) {
	type hotIface struct {
		iface   *types.Interface
		pkg     string
		name    string
		methods []string
	}
	var ifaces []hotIface
	for _, ref := range c.pass.PrefixFacts("hotiface:") {
		name := strings.TrimPrefix(ref.Key, "hotiface:")
		obj := c.lookupType(ref.Pkg, name)
		if obj == nil {
			continue
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		ifaces = append(ifaces, hotIface{iface, ref.Pkg, name, strings.Split(ref.Value, ",")})
	}
	if len(ifaces) == 0 {
		return
	}
	scope := c.pass.Pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, n := range names {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue // interfaces declare, they don't implement
		}
		if c.pass.InTestFile(tn.Pos()) {
			continue
		}
		for _, ifc := range ifaces {
			if !types.Implements(named, ifc.iface) && !types.Implements(types.NewPointer(named), ifc.iface) {
				continue
			}
			for _, m := range ifc.methods {
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, c.pass.Pkg, m)
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				fn = fn.Origin()
				if fi, ok := c.infos[fn]; ok {
					push(fi)
					continue
				}
				// Promoted from an embedded type in another package:
				// consult that package's summary.
				if fn.Pkg() != nil && fn.Pkg().Path() != c.pass.Pkg.Path() && inModule(fn.Pkg()) {
					if v, ok := c.pass.Fact(fn.Pkg().Path(), "fn:"+dataflow.FuncKey(fn)); ok {
						v = strings.SplitN(v, ";", 2)[0]
						if w, found := strings.CutPrefix(v, "dirty:"); found && !c.pass.Excused(tn.Pos()) {
							c.pass.Reportf(tn.Pos(), "%s implements hot %s.%s via %s, which %s",
								named.Obj().Name(), ifc.name, m, dataflow.QualifiedKey(fn), w)
						}
					}
				}
			}
		}
	}
}

// lookupType finds the named type pkgPath.name in this package or its
// transitive imports.
func (c *checker) lookupType(pkgPath, name string) types.Object {
	if pkgPath == c.pass.Pkg.Path() {
		return c.pass.Pkg.Scope().Lookup(name)
	}
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) types.Object
	find = func(p *types.Package) types.Object {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == pkgPath {
			return p.Scope().Lookup(name)
		}
		for _, imp := range p.Imports() {
			if o := find(imp); o != nil {
				return o
			}
		}
		return nil
	}
	return find(c.pass.Pkg)
}

// pushHotBindings finds every site binding a function value to a hot
// named func type — assignments, declarations, composite-literal
// fields, call arguments, returns, conversions — and makes the bound
// function a root, walking literals in place. A binding the engine
// cannot resolve is reported: it would launder an unverified function
// onto the hot path.
func (c *checker) pushHotBindings(push func(*funcInfo)) {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		if c.pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				if len(v.Lhs) == len(v.Rhs) {
					for i := range v.Rhs {
						c.checkBinding(v.Rhs[i], info.TypeOf(v.Lhs[i]), push)
					}
				}
			case *ast.ValueSpec:
				if len(v.Names) == len(v.Values) {
					for i := range v.Values {
						c.checkBinding(v.Values[i], info.TypeOf(v.Names[i]), push)
					}
				}
			case *ast.CompositeLit:
				c.checkLitBindings(v, push)
			case *ast.CallExpr:
				kind, callee, _ := dataflow.Classify(info, v)
				if kind == dataflow.KindConversion {
					c.checkBinding(v.Args[0], info.TypeOf(v), push)
				} else if callee != nil {
					if sig, ok := callee.Type().Underlying().(*types.Signature); ok {
						np := sig.Params().Len()
						for i, a := range v.Args {
							if i < np {
								c.checkBinding(a, sig.Params().At(i).Type(), push)
							}
						}
					}
				}
			case *ast.ReturnStmt:
				// Factories returning a hot func type: the declared
				// result type is what matters, but TypeOf on the
				// returned expression approximates it; explicit named
				// returns go through assignments anyway.
				for _, r := range v.Results {
					c.checkBinding(r, info.TypeOf(r), push)
				}
			}
			return true
		})
	}
}

// checkLitBindings matches composite-literal elements against their
// declared field or element types.
func (c *checker) checkLitBindings(lit *ast.CompositeLit, push func(*funcInfo)) {
	t := c.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for ei, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				id, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				for i := 0; i < u.NumFields(); i++ {
					if u.Field(i).Name() == id.Name {
						c.checkBinding(kv.Value, u.Field(i).Type(), push)
						break
					}
				}
			} else if ei < u.NumFields() {
				c.checkBinding(el, u.Field(ei).Type(), push)
			}
		}
	case *types.Slice:
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			c.checkBinding(el, u.Elem(), push)
		}
	case *types.Array:
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			c.checkBinding(el, u.Elem(), push)
		}
	case *types.Map:
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.checkBinding(kv.Value, u.Elem(), push)
			}
		}
	}
}

// checkBinding handles one expression flowing into a slot of hot func
// type dst.
func (c *checker) checkBinding(e ast.Expr, dst types.Type, push func(*funcInfo)) {
	if e == nil || dst == nil || !c.isHotFuncType(dst) {
		return
	}
	a := dataflow.Unparen(e)
	if lit, ok := a.(*ast.FuncLit); ok {
		// Walk the literal as its own hot root in place.
		fi := &funcInfo{pcalls: map[int]bool{}}
		c.scan(fi, lit.Body, nil)
		push(fi)
		return
	}
	if fn := dataflow.FuncValue(c.pass.TypesInfo, a); fn != nil {
		if fi, ok := c.infos[fn]; ok {
			push(fi)
			return
		}
		if inModule(fn.Pkg()) && fn.Pkg().Path() != c.pass.Pkg.Path() {
			if v, ok := c.pass.Fact(fn.Pkg().Path(), "fn:"+dataflow.FuncKey(fn)); ok {
				v = strings.SplitN(v, ";", 2)[0]
				if w, found := strings.CutPrefix(v, "dirty:"); found && !c.pass.Excused(e.Pos()) {
					c.pass.Reportf(e.Pos(), "binding to hot func type %s %s",
						dst.(*types.Named).Obj().Name(), "— the bound function "+w)
				}
			}
		}
		return
	}
	// Copying an existing value of the hot type (a variable, field, or
	// call result) is fine: it was verified where it was created.
	if t := c.pass.TypesInfo.TypeOf(a); t != nil {
		if c.isHotFuncType(t) {
			return
		}
		if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return
		}
	}
	if c.pass.Excused(e.Pos()) {
		return
	}
	c.pass.Reportf(e.Pos(), "unverifiable function value bound to hot func type %s",
		dst.(*types.Named).Obj().Name())
}
