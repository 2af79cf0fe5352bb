// Package walltaint proves, by taint tracking, that no wall-clock-
// derived value reaches the deterministic domain's outputs: the obs
// Registry (figure-feeding counters), config
// fingerprints, and the typed simulated-unit values (units.Cycles,
// units.EstCycles, ...) that figures are rendered from.
//
// PR 5 drew the simulated/wall boundary with types (units.WallNanos)
// and two suppressed exits in internal/obs/wall.go — an honor system:
// nothing stopped a wall nanosecond from being laundered through
// int64() three lines later and folded into a counter. This pass
// replaces the honor system with a checked dataflow property:
//
//   - Sources: every expression whose type is a Wall* unit, plus the
//     results of time.Now/Since/Until (so even detrand-suppressed
//     clock reads stay tainted downstream).
//   - Propagation: the dataflow solver tracks taint through
//     assignments, arithmetic, conversions (int64(wall) stays
//     tainted — that is the point), composite literals, and calls.
//     Cross-function flow uses summaries: "results always tainted"
//     (W), "results tainted when arguments are" (P), and "parameter i
//     reaches a sink" (S), exported as "taint:" facts so the check
//     composes across packages. Unknown externals conservatively
//     propagate argument taint to results.
//   - Sinks: calls to //cgplint:detsink functions (obs Registry
//     writes, Config.fingerprint), exported cross-package as
//     "detsink:" facts, and conversions of tainted values into
//     non-wall unit types (laundering a wall duration into
//     units.EstCycles would let it masquerade as a simulated
//     estimate).
//
// Comparisons drop taint: branching on a wall value is implicit flow,
// and the repository's legitimate uses (retry backoff, progress
// polling) gate control, not data. Test files are exempt.
package walltaint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"cgp/internal/analysis"
	"cgp/internal/analysis/dataflow"
)

// Analyzer is the walltaint pass.
var Analyzer = &analysis.Analyzer{
	Name: "walltaint",
	Doc: "taint-track units.Wall* values and clock reads; flag flows into " +
		"//cgplint:detsink functions and conversions into simulated unit types",
	Run: run,
}

// summary is one function's taint behavior.
type summary struct {
	w     bool          // results carry wall taint regardless of arguments
	p     bool          // argument taint propagates to results
	sinks dataflow.Mask // parameter bits that reach a sink
	done  bool
}

type checker struct {
	pass      *analysis.Pass
	decls     map[*types.Func]*ast.FuncDecl
	summaries map[*types.Func]*summary
	detsink   map[*types.Func]bool // local detsink-annotated functions
}

func run(pass *analysis.Pass) error {
	if !analysis.InDeterministicDomain(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{
		pass:      pass,
		decls:     dataflow.DeclIndex(pass.TypesInfo, pass.Files),
		summaries: map[*types.Func]*summary{},
		detsink:   map[*types.Func]bool{},
	}

	// Export detsink annotations first so in-package sink checks and
	// dependent packages share one lookup path.
	var fns []*types.Func
	for fn, decl := range c.decls {
		if pass.InTestFile(decl.Pos()) {
			continue
		}
		if ok, _ := analysis.Directive(decl.Doc, analysis.DirDetsink); ok {
			c.detsink[fn] = true
			pass.ExportFact("detsink:"+dataflow.FuncKey(fn), "1")
		}
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		return dataflow.FuncKey(fns[i]) < dataflow.FuncKey(fns[j])
	})

	// Summarize (and sink-check) every function; export non-trivial
	// summaries.
	for _, fn := range fns {
		s := c.summaryOf(fn)
		if s == nil || (!s.w && !s.p && s.sinks == 0) {
			continue
		}
		var parts []string
		if s.w {
			parts = append(parts, "W")
		}
		if s.p {
			parts = append(parts, "P")
		}
		if s.sinks != 0 {
			var idx []string
			for i := 0; i < 30; i++ {
				if s.sinks&dataflow.ParamBit(i) != 0 {
					idx = append(idx, itoa(i))
				}
			}
			parts = append(parts, "S="+strings.Join(idx, ","))
		}
		pass.ExportFact("taint:"+dataflow.FuncKey(fn), strings.Join(parts, ";"))
	}
	return nil
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// isWallType reports whether t is a Wall* unit type.
func isWallType(t types.Type) bool {
	return analysis.WallUnitType(t) != nil
}

// isDetUnit reports whether t is a simulated (non-wall) unit type —
// the types figures are rendered from.
func isDetUnit(t types.Type) bool {
	n := analysis.UnitType(t)
	return n != nil && !analysis.IsWallUnit(n)
}

// clockRead reports whether fn is a wall-clock read whose result must
// stay tainted even where detrand suppressions allow the call.
func clockRead(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

// summaryOf computes (once) the taint summary of fn, emitting sink
// diagnostics found in its body as a side effect. Recursion is cut
// optimistically: a cycle's members see the zero summary of the
// in-progress node, and the repository has no tainted recursion.
func (c *checker) summaryOf(fn *types.Func) *summary {
	if s, ok := c.summaries[fn]; ok {
		return s
	}
	decl, ok := c.decls[fn]
	if !ok || decl.Body == nil || c.pass.InTestFile(decl.Pos()) {
		return nil
	}
	s := &summary{}
	c.summaries[fn] = s // in-progress marker (zero behavior)

	params := paramVars(c.pass, decl)
	solver := &dataflow.Solver{
		Info:     c.pass.TypesInfo,
		IsSource: isWallType,
		CallMask: c.callMask,
	}
	solver.Run(decl.Body, params)

	// Result taint: explicit return expressions plus named results on
	// bare returns.
	var namedResults []*types.Var
	if decl.Type.Results != nil {
		for _, f := range decl.Type.Results.List {
			for _, n := range f.Names {
				if v, ok := c.pass.TypesInfo.Defs[n].(*types.Var); ok {
					namedResults = append(namedResults, v)
				}
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are not fn's returns
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		var m dataflow.Mask
		if len(ret.Results) == 0 {
			for _, v := range namedResults {
				m |= solver.ObjMask(v)
			}
		}
		for _, r := range ret.Results {
			m |= solver.ExprMask(r)
		}
		if m&dataflow.WallBit != 0 {
			s.w = true
		}
		if m&dataflow.AnyParam != 0 {
			s.p = true
		}
		return true
	})

	// Sink walk: detsink calls, sink-summary callees, det-unit
	// conversions.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, callee, _ := dataflow.Classify(c.pass.TypesInfo, call)
		switch kind {
		case dataflow.KindConversion:
			if t := c.pass.TypesInfo.TypeOf(call); t != nil && isDetUnit(t) {
				m := solver.ExprMask(call.Args[0])
				if m&dataflow.WallBit != 0 && !c.pass.Excused(call.Pos()) {
					c.pass.Reportf(call.Pos(), "wall-clock-derived value laundered into simulated unit %s", typeName(t))
				}
				s.sinks |= m & dataflow.AnyParam
			}
		case dataflow.KindCall, dataflow.KindDynamic:
			if callee == nil {
				return true
			}
			sinkParams := c.sinkParams(callee)
			if sinkParams == 0 {
				return true
			}
			for i, a := range call.Args {
				if sinkParams&dataflow.ParamBit(i) == 0 {
					continue
				}
				m := solver.ExprMask(a)
				if m&dataflow.WallBit != 0 && !c.pass.Excused(a.Pos()) {
					c.pass.Reportf(a.Pos(), "wall-clock-derived value flows into deterministic sink %s",
						dataflow.QualifiedKey(callee))
				}
				s.sinks |= m & dataflow.AnyParam
			}
		}
		return true
	})
	s.done = true
	return s
}

// sinkParams returns the mask of callee parameters that reach a
// deterministic sink: every parameter for detsink-annotated functions,
// or the S-set from a taint summary.
func (c *checker) sinkParams(callee *types.Func) dataflow.Mask {
	if c.detsink[callee] {
		return dataflow.AnyParam
	}
	if decl, local := c.decls[callee]; local && !c.pass.InTestFile(decl.Pos()) {
		if s := c.summaryOf(callee); s != nil {
			return s.sinks
		}
		return 0
	}
	pkg := callee.Pkg()
	if pkg == nil || !inModule(pkg) {
		return 0
	}
	if _, ok := c.pass.Fact(pkg.Path(), "detsink:"+dataflow.FuncKey(callee)); ok {
		return dataflow.AnyParam
	}
	if v, ok := c.pass.Fact(pkg.Path(), "taint:"+dataflow.FuncKey(callee)); ok {
		return parseSummary(v).sinks
	}
	return 0
}

// callMask implements the solver's call transfer: clock reads are
// sources; summarized callees apply their W/P behavior; unknown
// externals conservatively propagate argument taint.
func (c *checker) callMask(call *ast.CallExpr, args dataflow.Mask) dataflow.Mask {
	_, callee, _ := dataflow.Classify(c.pass.TypesInfo, call)
	if callee == nil {
		return args // calls through func values: propagate
	}
	if clockRead(callee) {
		return args | dataflow.WallBit
	}
	if decl, local := c.decls[callee]; local && !c.pass.InTestFile(decl.Pos()) {
		s := c.summaryOf(callee)
		if s == nil {
			return args
		}
		var m dataflow.Mask
		if s.w {
			m |= dataflow.WallBit
		}
		if s.p {
			m |= args
		}
		return m
	}
	pkg := callee.Pkg()
	if pkg != nil && inModule(pkg) && pkg.Path() != c.pass.Pkg.Path() {
		v, ok := c.pass.Fact(pkg.Path(), "taint:"+dataflow.FuncKey(callee))
		if !ok {
			// Summarized as clean unless its results are wall-typed,
			// which the solver's type seed already covers.
			return 0
		}
		s := parseSummary(v)
		var m dataflow.Mask
		if s.w {
			m |= dataflow.WallBit
		}
		if s.p {
			m |= args
		}
		return m
	}
	return args // external: propagate conservatively
}

// parseSummary decodes a taint: fact value.
func parseSummary(v string) summary {
	var s summary
	for _, part := range strings.Split(v, ";") {
		switch {
		case part == "W":
			s.w = true
		case part == "P":
			s.p = true
		case strings.HasPrefix(part, "S="):
			for _, f := range strings.Split(part[2:], ",") {
				n := 0
				for _, ch := range f {
					if ch < '0' || ch > '9' {
						n = -1
						break
					}
					n = n*10 + int(ch-'0')
				}
				if n >= 0 {
					s.sinks |= dataflow.ParamBit(n)
				}
			}
		}
	}
	return s
}

func typeName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func inModule(pkg *types.Package) bool {
	p := pkg.Path()
	return p == analysis.ModulePath || strings.HasPrefix(p, analysis.ModulePath+"/")
}

// paramVars returns the declared parameter objects in order, receivers
// excluded (receiver taint rarely matters and would double parameter
// indices across call sites, where receivers are not arguments).
func paramVars(pass *analysis.Pass, decl *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if decl.Type.Params == nil {
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
