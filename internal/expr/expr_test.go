package expr

import (
	"fmt"
	"sort"
	"testing"

	"mira/internal/rational"
)

func evalInt(t *testing.T, e Expr, env Env) int64 {
	t.Helper()
	v, err := EvalInt64(e, env)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestConstFolding(t *testing.T) {
	e := NewAdd(Const(2), Const(3), NewMul(Const(2), Const(5)))
	if got := evalInt(t, e, nil); got != 15 {
		t.Errorf("2+3+2*5 = %d", got)
	}
	if _, ok := e.(Num); !ok {
		t.Errorf("constant expression not folded: %s", e)
	}
}

func TestLikeTermCollection(t *testing.T) {
	n := P("n")
	e := NewAdd(n, n, NewMul(Const(3), n))
	// 5n
	env := EnvFromInts(map[string]int64{"n": 7})
	if got := evalInt(t, e, env); got != 35 {
		t.Errorf("n+n+3n at n=7 = %d", got)
	}
	if m, ok := e.(Mul); !ok || len(m.Factors) != 2 {
		t.Errorf("like terms not collected: %s", e)
	}
}

func TestMulByZero(t *testing.T) {
	e := NewMul(Const(0), P("n"))
	if !IsZero(e) {
		t.Errorf("0*n = %s", e)
	}
}

func TestSubNeg(t *testing.T) {
	e := NewSub(P("a"), P("a"))
	if !IsZero(e) {
		t.Errorf("a-a = %s", e)
	}
	e = NewNeg(Const(4))
	if got := evalInt(t, e, nil); got != -4 {
		t.Errorf("-4 = %d", got)
	}
}

func TestDistributeConstOverAdd(t *testing.T) {
	// 3*(n+1) should expand so that like-term collection can work later.
	e := NewMul(Const(3), NewAdd(P("n"), Const(1)))
	env := EnvFromInts(map[string]int64{"n": 5})
	if got := evalInt(t, e, env); got != 18 {
		t.Errorf("3*(n+1) at n=5 = %d", got)
	}
	e2 := NewAdd(e, NewMul(Const(-3), P("n")))
	if got := evalInt(t, e2, env); got != 3 {
		t.Errorf("3*(n+1)-3n = %d", got)
	}
	if _, ok := e2.(Num); !ok {
		t.Errorf("3*(n+1)-3n not folded to constant: %s", e2)
	}
}

func TestFloorDiv(t *testing.T) {
	e := NewFloorDiv(P("n"), rational.FromInt(4))
	env := EnvFromInts(map[string]int64{"n": 11})
	if got := evalInt(t, e, env); got != 2 {
		t.Errorf("floor(11/4) = %d", got)
	}
	// Constant folding.
	c := NewFloorDiv(Const(-7), rational.FromInt(2))
	if got := evalInt(t, c, nil); got != -4 {
		t.Errorf("floor(-7/2) = %d", got)
	}
}

func TestMinMaxFolding(t *testing.T) {
	if got := evalInt(t, NewMin(Const(3), Const(8)), nil); got != 3 {
		t.Errorf("min = %d", got)
	}
	if got := evalInt(t, NewMax(Const(3), Const(8)), nil); got != 8 {
		t.Errorf("max = %d", got)
	}
	// Identical expressions fold.
	if _, ok := NewMax(P("n"), P("n")).(Param); !ok {
		t.Error("max(n,n) not folded")
	}
}

func TestTrips(t *testing.T) {
	// for (i = 0; i <= n-1; i++) — n trips.
	e := Trips(Const(0), NewSub(P("n"), Const(1)), 1)
	env := EnvFromInts(map[string]int64{"n": 100})
	if got := evalInt(t, e, env); got != 100 {
		t.Errorf("trips = %d", got)
	}
	// Empty range clamps to zero.
	env = EnvFromInts(map[string]int64{"n": 0})
	if got := evalInt(t, e, env); got != 0 {
		t.Errorf("trips(empty) = %d", got)
	}
	// Strided: for (i = 0; i <= 10; i += 3) -> 0,3,6,9 = 4.
	e = Trips(Const(0), Const(10), 3)
	if got := evalInt(t, e, nil); got != 4 {
		t.Errorf("strided trips = %d", got)
	}
}

func TestSumIndependentBody(t *testing.T) {
	// sum_{i=1}^{n} 5 = 5n; must simplify away the Sum node.
	e := NewSum("i", Const(1), P("n"), Const(5))
	if _, ok := e.(Sum); ok {
		t.Errorf("independent-body sum not simplified: %s", e)
	}
	env := EnvFromInts(map[string]int64{"n": 12})
	if got := evalInt(t, e, env); got != 60 {
		t.Errorf("sum = %d", got)
	}
}

func TestSumFaulhaberLinear(t *testing.T) {
	// The paper's Listing 2 count: sum_{i=1}^{4} (6 - i) = 5+4+3+2 = 14.
	body := NewSub(Const(6), V("i"))
	e := NewSum("i", Const(1), Const(4), body)
	if got := evalInt(t, e, nil); got != 14 {
		t.Errorf("triangular count = %d, want 14", got)
	}
	if _, ok := e.(Num); !ok {
		t.Errorf("concrete triangular sum not folded: %s", e)
	}
}

func TestSumFaulhaberParametric(t *testing.T) {
	// sum_{i=0}^{n-1} (i+1) = n(n+1)/2, evaluated in O(1).
	e := NewSum("i", Const(0), NewSub(P("n"), Const(1)), NewAdd(V("i"), Const(1)))
	if _, ok := e.(Sum); ok {
		t.Fatalf("parametric triangular sum not closed: %s", e)
	}
	for _, n := range []int64{1, 2, 10, 1000, 100000000} {
		env := EnvFromInts(map[string]int64{"n": n})
		want := n * (n + 1) / 2
		if got := evalInt(t, e, env); got != want {
			t.Errorf("n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestSumQuadratic(t *testing.T) {
	// sum_{i=1}^{n} i^2 = n(n+1)(2n+1)/6.
	e := NewSum("i", Const(1), P("n"), NewMul(V("i"), V("i")))
	if _, ok := e.(Sum); ok {
		t.Fatalf("quadratic sum not closed: %s", e)
	}
	env := EnvFromInts(map[string]int64{"n": 100})
	if got := evalInt(t, e, env); got != 338350 {
		t.Errorf("sum i^2 = %d, want 338350", got)
	}
}

func TestNestedSumClosedForm(t *testing.T) {
	// sum_{i=1}^{m} sum_{j=i+1}^{n} 1 = sum (n - i) = m*n - m(m+1)/2.
	inner := NewSum("j", NewAdd(V("i"), Const(1)), P("n"), Const(1))
	outer := NewSum("i", Const(1), P("m"), inner)
	if _, ok := outer.(Sum); ok {
		t.Fatalf("nested sum not closed: %s", outer)
	}
	env := EnvFromInts(map[string]int64{"m": 4, "n": 6})
	// Listing 2: i in 1..4, j in i+1..6: 5+4+3+2 = 14.
	if got := evalInt(t, outer, env); got != 14 {
		t.Errorf("nested = %d, want 14", got)
	}
}

func TestSumWithMaxGuardRemainsAndEvaluates(t *testing.T) {
	// Body with a Max guard cannot close; enumeration must still be exact.
	body := NewMax(Const(0), NewSub(P("n"), V("i")))
	e := NewSum("i", Const(1), Const(10), body)
	if _, ok := e.(Sum); !ok {
		t.Fatalf("guarded sum unexpectedly closed: %s", e)
	}
	env := EnvFromInts(map[string]int64{"n": 5})
	// i=1..10 of max(0, 5-i) = 4+3+2+1+0+... = 10.
	if got := evalInt(t, e, env); got != 10 {
		t.Errorf("guarded sum = %d, want 10", got)
	}
}

func TestSumEmptyRange(t *testing.T) {
	e := NewSum("i", Const(5), Const(1), V("i"))
	if !IsZero(e) {
		t.Errorf("empty sum = %s", e)
	}
}

func TestSumSinglePoint(t *testing.T) {
	e := NewSum("i", Const(3), Const(3), NewMul(V("i"), V("i")))
	if got := evalInt(t, e, nil); got != 9 {
		t.Errorf("single-point sum = %d", got)
	}
}

func TestSumRangeLimit(t *testing.T) {
	e := Sum{Var: "i", Lo: Const(0), Hi: Const(1 << 40), Body: NewMax(V("i"), Const(0))}
	_, err := Eval(e, nil)
	if err == nil {
		t.Error("no error for oversized enumeration")
	}
}

func TestDependsOnAndShadowing(t *testing.T) {
	inner := Sum{Var: "i", Lo: Const(0), Hi: P("n"), Body: NewMax(V("i"), Const(0))}
	if DependsOn(inner, "i") {
		t.Error("bound variable reported as dependency")
	}
	if !DependsOn(inner, "n") {
		t.Error("free parameter not reported")
	}
}

func TestSubstitute(t *testing.T) {
	e := NewAdd(NewMul(Const(2), P("x")), Const(1))
	got := Substitute(e, "x", Const(10))
	if v := evalInt(t, got, nil); v != 21 {
		t.Errorf("2x+1 at x=10 = %d", v)
	}
	// Substitution re-simplifies.
	if _, ok := got.(Num); !ok {
		t.Errorf("substituted expression not folded: %s", got)
	}
}

func TestParams(t *testing.T) {
	e := NewAdd(P("b"), NewMul(P("a"), V("i")), NewSum("j", Const(0), P("c"), NewMax(V("j"), Const(0))))
	ps := Params(e)
	want := []string{"a", "b", "c"}
	if len(ps) != len(want) {
		t.Fatalf("params = %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("params[%d] = %s, want %s", i, ps[i], want[i])
		}
	}
}

func TestUnboundParamError(t *testing.T) {
	if _, err := Eval(P("mystery"), nil); err == nil {
		t.Error("no error for unbound parameter")
	}
}

func TestPythonEmission(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Const(5), "5"},
		{P("n"), "n"},
		{NewAdd(P("n"), Const(1)), "(1 + n)"},
		{NewMul(Const(2), P("n")), "2*n"},
		{NewFloorDiv(P("n"), rational.FromInt(3)), "((n) // 3)"},
		{NewMax(Const(0), P("n")), "max(0, n)"},
	}
	for _, c := range cases {
		if got := Python(c.e); got != c.want {
			t.Errorf("Python(%s) = %q, want %q", c.e, got, c.want)
		}
	}
	// Sum renders as a generator.
	s := Sum{Var: "i", Lo: Const(0), Hi: P("n"), Body: NewMax(V("i"), Const(0))}
	py := Python(s)
	if py != "sum((max(i, 0)) for i in range(0, (n) + 1))" {
		t.Errorf("Python(sum) = %q", py)
	}
}

func TestEqual(t *testing.T) {
	a := NewAdd(P("x"), Const(1))
	b := NewAdd(Const(1), P("x"))
	if !Equal(a, b) {
		t.Errorf("%s != %s", a, b)
	}
}

func TestSubstituteAllSimultaneous(t *testing.T) {
	// {a: b, b: a} must swap, not chain.
	e := NewAdd(NewMul(Const(2), P("a")), P("b"))
	got := SubstituteAll(e, map[string]Expr{"a": P("b"), "b": P("a")})
	v, err := Eval(got, Env{"a": rational.FromInt(100), "b": rational.FromInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	// 2*b + a at a=100, b=1 = 102.
	if n, _ := v.Int64(); n != 102 {
		t.Errorf("swap substitution = %s, want 102", v)
	}
}

func TestSubstituteAllShadowing(t *testing.T) {
	// sum(i=0..n-1)[i] with repl {i: 99}: the bound i shadows.
	s := Sum{Var: "i", Lo: Const(0), Hi: NewSub(P("n"), Const(1)),
		Body: NewFloorDiv(V("i"), rational.FromInt(1).Add(rational.FromFrac(1, 2)))}
	got := SubstituteAll(s, map[string]Expr{"i": Const(99)})
	a, err := Eval(got, Env{"n": rational.FromInt(4)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Eval(s, Env{"n": rational.FromInt(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("shadowed substitution changed value: %s != %s", a, b)
	}
}

// TestSubstituteAllCaptureAvoidance: substituting a replacement whose
// free name equals the Sum's bound variable must alpha-rename, not
// capture (evaluation resolves the index and parameters through one
// namespace).
func TestSubstituteAllCaptureAvoidance(t *testing.T) {
	// sum(k=0..m-1)[floor((m-k)/2)]; FloorDiv keeps the Sum alive.
	s := NewSum("k", Const(0), NewSub(P("m"), Const(1)),
		NewFloorDiv(NewSub(P("m"), V("k")), rational.FromInt(2)))
	if _, ok := s.(Sum); !ok {
		t.Fatalf("setup: sum folded to %s", s)
	}
	// m -> k (the caller's parameter happens to be named k).
	got := SubstituteAll(s, map[string]Expr{"m": P("k")})
	want, err := Eval(s, Env{"m": rational.FromInt(10)})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Eval(got, Env{"k": rational.FromInt(10)})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Errorf("captured: subst eval = %s, direct eval = %s", g, want)
	}
}

// TestStringMatchesFmt pins the concatenating renderers of FloorDiv, Min,
// Max and Sum to the fmt formats they replaced, and sortExprs to the
// "0"/"1"+String() keys it used to build.
func TestStringMatchesFmt(t *testing.T) {
	n, m := Param{"n"}, Var{"i"}
	half := rational.FromFrac(1, 2)
	add := NewAdd(n, Const(3))
	cases := []struct {
		e    Expr
		want string
	}{
		{FloorDiv{X: add, D: half}, fmt.Sprintf("floor(%s / %s)", add, half)},
		{FloorDiv{X: n, D: rational.FromInt(4)}, fmt.Sprintf("floor(%s / %s)", n, rational.FromInt(4))},
		{Min{A: n, B: add}, fmt.Sprintf("min(%s, %s)", n, add)},
		{Max{A: Const(-2), B: m}, fmt.Sprintf("max(%s, %s)", Const(-2), m)},
		{Sum{Var: "i", Lo: Const(0), Hi: add, Body: NewMul(m, n)},
			fmt.Sprintf("sum(%s=%s..%s)[%s]", "i", Const(0), add, NewMul(m, n))},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, fmt renders %q", got, c.want)
		}
	}

	es := []Expr{m, Const(5), add, n, Const(-1), Min{A: n, B: m}, Const(5), Param{"a"}}
	want := append([]Expr(nil), es...)
	key := func(e Expr) string {
		if _, ok := e.(Num); ok {
			return "0"
		}
		return "1" + e.String()
	}
	sort.SliceStable(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
	sortExprs(es)
	for i := range es {
		if es[i].String() != want[i].String() {
			t.Fatalf("sortExprs order %v, keyed order %v", es, want)
		}
	}
}
