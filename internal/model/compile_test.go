package model

import (
	"errors"
	"maps"
	"sync"
	"testing"

	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/rational"
)

// evalBoth checks the compiled and tree-walk evaluations agree exactly
// (metrics, opcode maps, and evaluability) for one function and env.
func evalBoth(t *testing.T, m *Model, fn string, env expr.Env) {
	t.Helper()
	cm, err := m.Compile(fn)
	if err != nil {
		t.Fatalf("Compile(%s): %v", fn, err)
	}
	met, errW := m.Evaluate(fn, env)
	cmet, errC := cm.Eval(env)
	if (errW == nil) != (errC == nil) {
		t.Fatalf("%s: walker err=%v, compiled err=%v", fn, errW, errC)
	}
	if errW == nil && met != cmet {
		t.Fatalf("%s: walker %+v != compiled %+v", fn, met, cmet)
	}
	ops, errW := m.EvaluateOpcodes(fn, env)
	cops, errC := cm.EvalOps(env)
	if (errW == nil) != (errC == nil) {
		t.Fatalf("%s ops: walker err=%v, compiled err=%v", fn, errW, errC)
	}
	if errW == nil {
		if len(ops) != len(cops) {
			t.Fatalf("%s ops: walker %v != compiled %v", fn, ops, cops)
		}
		for op, n := range ops {
			if cops[op] != n {
				t.Fatalf("%s ops[%v]: walker %d != compiled %d", fn, op, n, cops[op])
			}
		}
	}
}

func TestCompileMatchesWalker(t *testing.T) {
	m := buildModel()
	for _, n := range []int64{0, 1, 7, 1000} {
		evalBoth(t, m, "outer", expr.EnvFromInts(map[string]int64{"n": n}))
		evalBoth(t, m, "inner", expr.EnvFromInts(map[string]int64{"m": n}))
	}
}

func TestCompileUnknownFunction(t *testing.T) {
	m := buildModel()
	if _, err := m.Compile("nope"); err == nil {
		t.Fatal("Compile of unknown function succeeded")
	}
}

func TestCompileUnboundParameterFailsLikeWalker(t *testing.T) {
	m := buildModel()
	evalBoth(t, m, "outer", expr.Env{}) // n unbound: both must fail
}

// TestCompileMangledFallback exercises the paper's y_16 convention: a
// call with a statically underived argument resolves through the
// mangled parameter name, in both the walker and the compiled form.
func TestCompileMangledFallback(t *testing.T) {
	inner := &Func{
		Name:   "inner",
		Params: []string{"m"},
		Sites: []*Site{{
			Line: 2, Counts: catVec(ir.CatSSEArith, 1),
			Ops: []ir.OpN{{Op: ir.ADDSD, N: 1}}, Flops: 1, Instrs: 1,
			Mult: expr.P("m"),
		}},
	}
	outer := &Func{
		Name:   "outer",
		Params: []string{"n"},
		Calls: []*Call{{
			Callee: "inner", Line: 16,
			Mult:     expr.Const(1),
			Args:     map[string]expr.Expr{"m": nil},
			ArgOrder: []string{"m"},
		}},
	}
	m := &Model{Order: []string{"inner", "outer"}, Funcs: map[string]*Func{"inner": inner, "outer": outer}}

	// Bound mangled name: both paths resolve it.
	evalBoth(t, m, "outer", expr.EnvFromInts(map[string]int64{"n": 4, "m_16": 11}))
	// Unbound mangled name: both paths must fail.
	evalBoth(t, m, "outer", expr.EnvFromInts(map[string]int64{"n": 4}))
}

// TestCompileSumVariableCapture: inlining a callee whose summation
// variable shares a name with a caller parameter must not capture —
// substituting m -> Param("k") inside sum(k=...)[...m...] would make
// the caller's k read the summation index (evaluation resolves both
// through one namespace). The compiler alpha-renames the bound
// variable, so walker and compiled agree.
func TestCompileSumVariableCapture(t *testing.T) {
	// g(m): one site executed sum(k=0..m-1) floor((m-k)/2) times — the
	// FloorDiv body keeps the Sum from folding to a closed form.
	sumMult := expr.NewSum("k", expr.Const(0), expr.NewSub(expr.P("m"), expr.Const(1)),
		expr.NewFloorDiv(expr.NewSub(expr.P("m"), expr.V("k")), rational.FromInt(2)))
	if _, isSum := sumMult.(expr.Sum); !isSum {
		t.Fatalf("test setup: multiplicity folded to %s, need a live Sum", sumMult)
	}
	g := &Func{
		Name:   "g",
		Params: []string{"m"},
		Sites: []*Site{{
			Line: 2, Counts: catVec(ir.CatSSEArith, 1),
			Ops: []ir.OpN{{Op: ir.ADDSD, N: 1}}, Flops: 1, Instrs: 1,
			Mult: sumMult,
		}},
	}
	// f(k): calls g(k) — the caller's parameter is named like g's
	// summation variable.
	f := &Func{
		Name:   "f",
		Params: []string{"k"},
		Calls: []*Call{{
			Callee: "g", Line: 5,
			Mult:     expr.Const(1),
			Args:     map[string]expr.Expr{"m": expr.P("k")},
			ArgOrder: []string{"m"},
		}},
	}
	m := &Model{Order: []string{"g", "f"}, Funcs: map[string]*Func{"g": g, "f": f}}
	for k := int64(0); k <= 12; k++ {
		evalBoth(t, m, "f", expr.EnvFromInts(map[string]int64{"k": k}))
	}
}

// TestCompileUncomputableArgFallback: an argument expression the
// walkers cannot evaluate at runtime falls back to the mangled
// environment binding (the error hint's own advice); the compiled form
// must honor the same fallback, not fail the query.
func TestCompileUncomputableArgFallback(t *testing.T) {
	g := &Func{
		Name:   "g",
		Params: []string{"m"},
		Sites: []*Site{{
			Line: 2, Counts: catVec(ir.CatSSEArith, 1),
			Ops: []ir.OpN{{Op: ir.ADDSD, N: 1}}, Flops: 1, Instrs: 1,
			Mult: expr.P("m"),
		}},
	}
	f := &Func{
		Name:   "f",
		Params: []string{"a"},
		Calls: []*Call{{
			Callee: "g", Line: 9,
			Mult:     expr.Const(1),
			Args:     map[string]expr.Expr{"m": expr.NewAdd(expr.P("a"), expr.Const(1))},
			ArgOrder: []string{"m"},
		}},
	}
	m := &Model{Order: []string{"g", "f"}, Funcs: map[string]*Func{"g": g, "f": f}}

	// a bound: the derived expression computes; m_9 is ignored.
	evalBoth(t, m, "f", expr.EnvFromInts(map[string]int64{"a": 4}))
	evalBoth(t, m, "f", expr.EnvFromInts(map[string]int64{"a": 4, "m_9": 100}))
	// a unbound, m_9 bound: both paths must succeed via the fallback.
	env := expr.EnvFromInts(map[string]int64{"m_9": 5})
	want, err := m.Evaluate("f", env)
	if err != nil {
		t.Fatalf("walker rejected the mangled fallback: %v", err)
	}
	if want.FPI() != 5 {
		t.Fatalf("walker FPI = %d, want 5", want.FPI())
	}
	evalBoth(t, m, "f", env)
	// Neither bound: both paths must fail.
	evalBoth(t, m, "f", expr.Env{})
}

// TestCompileOverflow pins the ErrOverflow contract through the
// compiled path: a multiplicity product past int64 is a typed error,
// not a silent wrap, in walker and compiled form alike.
func TestCompileOverflow(t *testing.T) {
	// inner runs n*n times per call; outer calls it n times: n^3 ADDSD.
	inner := &Func{
		Name:   "inner",
		Params: []string{"m"},
		Sites: []*Site{{
			Line: 2, Counts: catVec(ir.CatSSEArith, 2),
			Ops: []ir.OpN{{Op: ir.ADDSD, N: 2}}, Flops: 2, Instrs: 2,
			Mult: expr.NewMul(expr.P("m"), expr.P("m")),
		}},
	}
	outer := &Func{
		Name:   "outer",
		Params: []string{"n"},
		Calls: []*Call{{
			Callee: "inner", Line: 5,
			Mult:     expr.P("n"),
			Args:     map[string]expr.Expr{"m": expr.P("n")},
			ArgOrder: []string{"m"},
		}},
	}
	m := &Model{Order: []string{"inner", "outer"}, Funcs: map[string]*Func{"inner": inner, "outer": outer}}

	cm, err := m.Compile("outer")
	if err != nil {
		t.Fatal(err)
	}
	// 3e6^3 = 2.7e19 > MaxInt64: the count itself wraps.
	env := expr.EnvFromInts(map[string]int64{"n": 3_000_000})
	if _, err := m.Evaluate("outer", env); !errors.Is(err, ErrOverflow) {
		t.Fatalf("walker overflow err = %v, want ErrOverflow", err)
	}
	if _, err := cm.Eval(env); !errors.Is(err, ErrOverflow) {
		t.Fatalf("compiled overflow err = %v, want ErrOverflow", err)
	}
	if _, err := m.EvaluateOpcodes("outer", env); !errors.Is(err, ErrOverflow) {
		t.Fatalf("opcode walker overflow err = %v, want ErrOverflow", err)
	}
	if _, err := cm.EvalOps(env); !errors.Is(err, ErrOverflow) {
		t.Fatalf("compiled opcode overflow err = %v, want ErrOverflow", err)
	}
	// Just below the wrap boundary both paths still agree exactly.
	evalBoth(t, m, "outer", expr.EnvFromInts(map[string]int64{"n": 1_000_000}))
}

// TestCompileFractionalRounding pins the per-level round-to-nearest
// parity on br_frac-style fractional multiplicities, where collapsing
// the chain into one product would round differently than the walkers.
func TestCompileFractionalRounding(t *testing.T) {
	inner := &Func{
		Name:   "inner",
		Params: []string{"m"},
		Sites: []*Site{{
			Line: 2, Counts: catVec(ir.CatSSEArith, 1),
			Ops: []ir.OpN{{Op: ir.ADDSD, N: 1}}, Flops: 1, Instrs: 1,
			// 0.37*m: fractional for most m, rounds per level.
			Mult: expr.NewMul(expr.ConstRat(fr(37, 100)), expr.P("m")),
		}},
	}
	outer := &Func{
		Name:   "outer",
		Params: []string{"n"},
		Calls: []*Call{{
			Callee: "inner", Line: 7,
			// 0.5*n: ties round up, per level, before the product.
			Mult:     expr.NewMul(expr.ConstRat(fr(1, 2)), expr.P("n")),
			Args:     map[string]expr.Expr{"m": expr.P("n")},
			ArgOrder: []string{"m"},
		}},
	}
	m := &Model{Order: []string{"inner", "outer"}, Funcs: map[string]*Func{"inner": inner, "outer": outer}}
	for n := int64(0); n < 25; n++ {
		evalBoth(t, m, "outer", expr.EnvFromInts(map[string]int64{"n": n}))
	}
}

// TestCompileClosedForm checks the collapsed symbolic series: outer's
// FPI is 5 calls x (2n) ADDSD = 10n, readable straight off the expr.
func TestCompileClosedForm(t *testing.T) {
	m := buildModel()
	cm, err := m.Compile("outer")
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.Expr(ExprFPI).String(); got != "10*n" {
		t.Errorf("FPI closed form = %q, want 10*n", got)
	}
	if got := cm.Expr(ExprInstrs).String(); got != "(2 + 10*n)" {
		t.Errorf("instrs closed form = %q, want (2 + 10*n)", got)
	}
	if ps := cm.Params(); len(ps) != 1 || ps[0] != "n" {
		t.Errorf("params = %v, want [n]", ps)
	}
}

// TestCompileConstantFolding: a fully constant model compiles to terms
// with empty chains (everything folded), and still evaluates correctly.
func TestCompileConstantFolding(t *testing.T) {
	f := &Func{
		Name: "leaf",
		Sites: []*Site{
			{Line: 1, Counts: catVec(ir.CatIntData, 3), Instrs: 3, Mult: expr.Const(7),
				Ops: []ir.OpN{{Op: ir.PUSH, N: 3}}},
			{Line: 2, Counts: catVec(ir.CatIntData, 1), Instrs: 1, Mult: expr.Const(2),
				Ops: []ir.OpN{{Op: ir.POP, N: 1}}},
		},
	}
	m := &Model{Order: []string{"leaf"}, Funcs: map[string]*Func{"leaf": f}}
	cm, err := m.Compile("leaf")
	if err != nil {
		t.Fatal(err)
	}
	if cm.NumExprs() != 0 {
		t.Errorf("constant model interned %d exprs, want 0", cm.NumExprs())
	}
	if cm.NumTerms() != 1 {
		t.Errorf("constant sites did not merge: %d terms, want 1", cm.NumTerms())
	}
	evalBoth(t, m, "leaf", expr.Env{})
}

func fr(num, den int64) rational.Rat { return rational.FromFrac(num, den) }

// TestCompiledEvalConcurrent: Eval and EvalOps on one compiled model
// from several goroutines at once share its pool of workspaces; every
// answer must still be the walker's at its own point, including points
// whose rational path or walker fallback runs (a non-integral binding,
// an unbound parameter).
func TestCompiledEvalConcurrent(t *testing.T) {
	m := buildModel()
	cm, err := m.Compile("outer")
	if err != nil {
		t.Fatal(err)
	}
	envs := []expr.Env{{}, {"n": rational.FromFrac(7, 2)}}
	for n := int64(-2); n < 30; n++ {
		envs = append(envs, expr.EnvFromInts(map[string]int64{"n": n}))
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				env := envs[(g+i)%len(envs)]
				want, werr := m.Evaluate("outer", env)
				got, gerr := cm.Eval(env)
				if (werr == nil) != (gerr == nil) || werr == nil && got != want {
					t.Errorf("Eval at %v: %+v (%v), walker %+v (%v)", env, got, gerr, want, werr)
					return
				}
				wantOps, werr := m.EvaluateOpcodes("outer", env)
				gotOps, gerr := cm.EvalOps(env)
				if (werr == nil) != (gerr == nil) || werr == nil && !maps.Equal(gotOps, wantOps) {
					t.Errorf("EvalOps at %v: %v (%v), walker %v (%v)", env, gotOps, gerr, wantOps, werr)
					return
				}
			}
		}()
	}
	wg.Wait()
}
