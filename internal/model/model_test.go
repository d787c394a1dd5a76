package model

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/rational"
)

// buildModel constructs a small two-function model by hand:
//
//	inner(m): loop of m ADDSD
//	outer(n): calls inner(n*2) five times
func buildModel() *Model {
	inner := &Func{
		Name:   "inner",
		Params: []string{"m"},
		Sites: []*Site{
			{
				Line: 2, Col: 1, Desc: "s = s + 1.0",
				Counts: catVec(ir.CatSSEArith, 1),
				Ops:    []ir.OpN{{Op: ir.ADDSD, N: 1}},
				Flops:  1, Instrs: 1,
				Mult: expr.P("m"),
			},
		},
	}
	outer := &Func{
		Name:   "outer",
		Params: []string{"n"},
		Sites: []*Site{
			{
				Line: 10, Col: 1, Desc: "prologue",
				Counts: catVec(ir.CatIntData, 2),
				Ops:    []ir.OpN{{Op: ir.PUSH, N: 1}, {Op: ir.POP, N: 1}},
				Instrs: 2,
				Mult:   expr.Const(1),
			},
		},
		Calls: []*Call{
			{
				Callee: "inner", Line: 12,
				Mult:     expr.Const(5),
				Args:     map[string]expr.Expr{"m": expr.NewMul(expr.Const(2), expr.P("n"))},
				ArgOrder: []string{"m"},
			},
		},
	}
	lib := &Func{Name: "sqrt", Params: []string{"x"}, Extern: true}
	return &Model{
		SourceName: "hand.c",
		Order:      []string{"inner", "outer", "sqrt"},
		Funcs:      map[string]*Func{"inner": inner, "outer": outer, "sqrt": lib},
	}
}

func catVec(c ir.Category, n int64) [ir.NumCategories]int64 {
	var v [ir.NumCategories]int64
	v[c] = n
	return v
}

func TestEvaluateInclusive(t *testing.T) {
	m := buildModel()
	env := expr.EnvFromInts(map[string]int64{"n": 10})
	met, err := m.Evaluate("outer", env)
	if err != nil {
		t.Fatal(err)
	}
	// 5 calls x (2*10) ADDSD = 100 FPI plus 2 prologue instructions.
	if met.FPI() != 100 {
		t.Errorf("FPI = %d, want 100", met.FPI())
	}
	if met.Instrs != 102 {
		t.Errorf("instrs = %d, want 102", met.Instrs)
	}
}

func TestEvaluateExclusive(t *testing.T) {
	m := buildModel()
	env := expr.EnvFromInts(map[string]int64{"n": 10})
	met, err := m.EvaluateExclusive("outer", env)
	if err != nil {
		t.Fatal(err)
	}
	if met.FPI() != 0 || met.Instrs != 2 {
		t.Errorf("exclusive = %+v", met)
	}
}

func TestEvaluateOpcodes(t *testing.T) {
	m := buildModel()
	env := expr.EnvFromInts(map[string]int64{"n": 3})
	ops, err := m.EvaluateOpcodes("outer", env)
	if err != nil {
		t.Fatal(err)
	}
	if ops[ir.ADDSD] != 30 || ops[ir.PUSH] != 1 {
		t.Errorf("ops = %v", ops)
	}
}

func TestExternIsZero(t *testing.T) {
	m := buildModel()
	met, err := m.Evaluate("sqrt", nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.Instrs != 0 {
		t.Errorf("extern metrics = %+v", met)
	}
}

func TestMissingFunction(t *testing.T) {
	m := buildModel()
	if _, err := m.Evaluate("ghost", nil); err == nil {
		t.Error("missing function accepted")
	}
}

func TestUnboundParameterError(t *testing.T) {
	m := buildModel()
	_, err := m.Evaluate("outer", nil) // n unbound
	if err == nil || !strings.Contains(err.Error(), "n") {
		t.Errorf("err = %v", err)
	}
}

func TestFreeParams(t *testing.T) {
	m := buildModel()
	ps := m.Funcs["outer"].FreeParams()
	if len(ps) != 1 || ps[0] != "n" {
		t.Errorf("free params = %v", ps)
	}
}

func TestMetricsAdd(t *testing.T) {
	var a Metrics
	b := Metrics{Flops: 2, Instrs: 5}
	b.ByCategory[ir.CatSSEArith] = 3
	if err := a.Add(b, 4); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if a.Flops != 8 || a.Instrs != 20 || a.FPI() != 12 {
		t.Errorf("a = %+v", a)
	}
}

func TestMetricsAddOverflow(t *testing.T) {
	var a Metrics
	b := Metrics{Instrs: 3}
	// 3 * (MaxInt64/2) overflows in the multiply.
	if err := a.Add(b, math.MaxInt64/2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Add overflow err = %v, want ErrOverflow", err)
	}
	if a.Instrs != 0 {
		t.Errorf("failed Add mutated the receiver: %+v", a)
	}
	// Accumulation overflow: two adds that each fit but whose sum wraps.
	a = Metrics{Instrs: math.MaxInt64 - 1}
	if err := a.Add(Metrics{Instrs: 2}, 1); !errors.Is(err, ErrOverflow) {
		t.Fatalf("accumulate overflow err = %v, want ErrOverflow", err)
	}
}

func TestMangledParam(t *testing.T) {
	if got := MangledParam("y", 16); got != "y_16" {
		t.Errorf("MangledParam = %q, want y_16 (the paper's convention)", got)
	}
}

func TestPythonEmission(t *testing.T) {
	m := buildModel()
	py := m.EmitPython()
	for _, want := range []string{
		"def handle_function_call(caller, callee, count):",
		"def inner_1(m):",
		"def outer_1(n):",
		"def sqrt_1(x):",
		"external library function",
		"handle_function_call(metrics, inner_1(2*n), 5)",
		"SSE2 packed arithmetic instruction",
	} {
		if !strings.Contains(py, want) {
			t.Errorf("python missing %q\n----\n%s", want, py)
		}
	}
}

func TestPyFuncNameConventions(t *testing.T) {
	cases := []struct {
		f    *Func
		want string
	}{
		{&Func{Name: "A::foo", Params: []string{"x", "y"}}, "A_foo_2"},
		{&Func{Name: "main"}, "main_0"},
		{&Func{Name: "MatVec::operator()", Params: []string{"n", "A", "x", "y"}}, "MatVec_operator_call_4"},
	}
	for _, c := range cases {
		if got := PyFuncName(c.f); got != c.want {
			t.Errorf("PyFuncName(%s) = %q, want %q", c.f.Name, got, c.want)
		}
	}
}

// opsTotal sums a per-opcode count map — the instruction total the
// opcode walker implies.
func opsTotal(ops map[ir.Op]int64) int64 {
	var n int64
	for _, c := range ops {
		n += c
	}
	return n
}

// fracModel builds a model whose multiplicities are fractional (the
// br_frac shape): a site executed n/4 times and a callee invoked 5/2
// times. Both walkers must round these identically.
func fracModel() *Model {
	leaf := &Func{
		Name: "leaf",
		Sites: []*Site{
			{
				Line: 2, Col: 1, Desc: "body",
				Counts: catVec(ir.CatSSEArith, 1),
				Ops:    []ir.OpN{{Op: ir.ADDSD, N: 1}},
				Flops:  1, Instrs: 1,
				Mult: expr.Const(7),
			},
		},
	}
	top := &Func{
		Name:   "top",
		Params: []string{"n"},
		Sites: []*Site{
			{
				Line: 10, Col: 1, Desc: "guarded",
				Counts: catVec(ir.CatSSEArith, 1),
				Ops:    []ir.OpN{{Op: ir.MULSD, N: 1}},
				Flops:  1, Instrs: 1,
				// n/4 executions: fractional for n not divisible by 4.
				Mult: expr.NewMul(expr.ConstRat(rational.FromFrac(1, 4)), expr.P("n")),
			},
		},
		Calls: []*Call{
			{
				Callee: "leaf", Line: 12,
				// 5/2 invocations: rounds to 3, truncates to 2.
				Mult: expr.ConstRat(rational.FromFrac(5, 2)),
				Args: map[string]expr.Expr{},
			},
		},
	}
	return &Model{
		SourceName: "frac.c",
		Order:      []string{"leaf", "top"},
		Funcs:      map[string]*Func{"leaf": leaf, "top": top},
	}
}

// TestFractionalMultiplicityAgreement is the regression test for the
// rounding divergence: the opcode walk used to truncate fractional
// multiplicities where the metric walk rounded to nearest, so Table II totals
// disagreed with Evaluate on br_frac-annotated programs.
func TestFractionalMultiplicityAgreement(t *testing.T) {
	m := fracModel()
	for _, n := range []int64{1, 2, 3, 5, 6, 7, 101, 102, 103} {
		env := expr.EnvFromInts(map[string]int64{"n": n})
		met, err := m.Evaluate("top", env)
		if err != nil {
			t.Fatalf("n=%d: Evaluate: %v", n, err)
		}
		ops, err := m.EvaluateOpcodes("top", env)
		if err != nil {
			t.Fatalf("n=%d: EvaluateOpcodes: %v", n, err)
		}
		if got := opsTotal(ops); got != met.Instrs {
			t.Errorf("n=%d: opcode total %d != Evaluate instrs %d", n, got, met.Instrs)
		}
	}
	// Spot-check the rounding direction: n=2 gives site mult 1/2 -> 1
	// (round to nearest, ties up) and call mult 5/2 -> 3 calls of 7.
	env := expr.EnvFromInts(map[string]int64{"n": 2})
	met, err := m.Evaluate("top", env)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + 3*7); met.Instrs != want {
		t.Errorf("Instrs = %d, want %d", met.Instrs, want)
	}
	ops, err := m.EvaluateOpcodes("top", env)
	if err != nil {
		t.Fatal(err)
	}
	if ops[ir.ADDSD] != 21 || ops[ir.MULSD] != 1 {
		t.Errorf("ops = %v, want ADDSD=21 MULSD=1", ops)
	}
}

// bindModel builds a caller whose argument expression is not computable
// (it references an unbound name) while the caller's own scope binds the
// callee's parameter name — the shape where the opcode walk used to leak the
// stale caller binding into the callee instead of applying the
// mangled-name fallback.
func bindModel() *Model {
	callee := &Func{
		Name:   "callee",
		Params: []string{"m"},
		Sites: []*Site{
			{
				Line: 2, Col: 1, Desc: "body",
				Counts: catVec(ir.CatSSEArith, 1),
				Ops:    []ir.OpN{{Op: ir.ADDSD, N: 1}},
				Flops:  1, Instrs: 1,
				Mult: expr.P("m"),
			},
		},
	}
	caller := &Func{
		Name:   "caller",
		Params: []string{"m"}, // same name as the callee's parameter
		Calls: []*Call{
			{
				Callee: "callee", Line: 12,
				Mult:     expr.Const(1),
				Args:     map[string]expr.Expr{"m": expr.P("q")}, // q never bound
				ArgOrder: []string{"m"},
			},
		},
	}
	return &Model{
		SourceName: "bind.c",
		Order:      []string{"callee", "caller"},
		Funcs:      map[string]*Func{"callee": callee, "caller": caller},
	}
}

// TestCallArgBindingAgreement is the regression test for the argument-
// binding divergence: with the mangled name bound, both walkers must use
// it (not the caller-scope value); without it, both must fail the same
// way rather than one walker silently reusing the caller's binding.
func TestCallArgBindingAgreement(t *testing.T) {
	m := bindModel()

	// Mangled name supplied: callee sees m_12=100, not the caller's m=5.
	env := expr.EnvFromInts(map[string]int64{"m": 5, "m_12": 100})
	met, err := m.Evaluate("caller", env)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if met.Instrs != 100 {
		t.Errorf("Evaluate instrs = %d, want 100 (mangled binding)", met.Instrs)
	}
	ops, err := m.EvaluateOpcodes("caller", env)
	if err != nil {
		t.Fatalf("EvaluateOpcodes: %v", err)
	}
	if ops[ir.ADDSD] != 100 {
		t.Errorf("EvaluateOpcodes ADDSD = %d, want 100 (stale caller-scope binding leaked?)", ops[ir.ADDSD])
	}

	// Mangled name absent: both walkers must report the uncomputable
	// argument, not fall back to the caller's m.
	env = expr.EnvFromInts(map[string]int64{"m": 5})
	if _, err := m.Evaluate("caller", env); err == nil || !strings.Contains(err.Error(), "m_12") {
		t.Errorf("Evaluate err = %v, want mangled-name diagnostic", err)
	}
	if _, err := m.EvaluateOpcodes("caller", env); err == nil || !strings.Contains(err.Error(), "m_12") {
		t.Errorf("EvaluateOpcodes err = %v, want mangled-name diagnostic", err)
	}
}
