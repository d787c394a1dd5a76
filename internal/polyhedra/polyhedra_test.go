package polyhedra

import (
	"errors"
	"testing"

	"mira/internal/expr"
	"mira/internal/rational"
)

func mustCount(t *testing.T, n Nest) expr.Expr {
	t.Helper()
	c, err := Count(n)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return c
}

func evalCount(t *testing.T, n Nest, env expr.Env) int64 {
	t.Helper()
	c := mustCount(t, n)
	v, err := expr.EvalInt64(c, env)
	if err != nil {
		t.Fatalf("eval %s: %v", c, err)
	}
	return v
}

// bruteCount enumerates the nest domain directly as a reference oracle.
func bruteCount(t *testing.T, n Nest, env expr.Env) int64 {
	t.Helper()
	var rec func(entries []Entry, env expr.Env) int64
	rec = func(entries []Entry, env expr.Env) int64 {
		if len(entries) == 0 {
			return 1
		}
		e := entries[0]
		if e.Guard != nil {
			g := e.Guard
			switch g.Kind {
			case AffineGE:
				v, err := expr.EvalInt64(g.E, env)
				if err != nil {
					t.Fatalf("brute guard: %v", err)
				}
				if v < 0 {
					return 0
				}
			case ModEq, ModNeq:
				v, err := expr.EvalInt64(g.E, env)
				if err != nil {
					t.Fatalf("brute mod: %v", err)
				}
				r := ((v % g.Mod) + g.Mod) % g.Mod
				if (g.Kind == ModEq) != (r == g.Rem) {
					return 0
				}
			case Scale:
				t.Fatal("brute cannot evaluate Scale")
			}
			return rec(entries[1:], env)
		}
		l := e.Loop
		lo, err := expr.EvalInt64(l.Lo, env)
		if err != nil {
			t.Fatalf("brute lo: %v", err)
		}
		hi, err := expr.EvalInt64(l.Hi, env)
		if err != nil {
			t.Fatalf("brute hi: %v", err)
		}
		var total int64
		for v := lo; v <= hi; v += l.Step {
			total += rec(entries[1:], env.Bind(l.Var, rational.FromInt(v)))
		}
		return total
	}
	return rec(n.Entries, env)
}

func checkAgainstBrute(t *testing.T, n Nest, env expr.Env) {
	t.Helper()
	got := evalCount(t, n, env)
	want := bruteCount(t, n, env)
	if got != want {
		t.Errorf("symbolic=%d brute=%d (%s)", got, want, mustCount(t, n))
	}
}

// Listing 1: for (i = 0; i < 10; i++) — 10 iterations.
func TestListing1BasicLoop(t *testing.T) {
	n := Nest{}.WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.Const(9), Step: 1})
	if got := evalCount(t, n, nil); got != 10 {
		t.Errorf("count = %d, want 10", got)
	}
	checkAgainstBrute(t, n, nil)
}

// Listing 2: for(i=1..4) for(j=i+1..6) — 14 iterations, closed form.
func TestListing2TriangularNest(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(4), Step: 1}).
		WithLoop(Loop{Var: "j", Lo: expr.NewAdd(expr.V("i"), expr.Const(1)), Hi: expr.Const(6), Step: 1})
	c := mustCount(t, n)
	if _, isNum := c.(expr.Num); !isNum {
		t.Errorf("concrete triangular count not folded: %s", c)
	}
	if got := evalCount(t, n, nil); got != 14 {
		t.Errorf("count = %d, want 14", got)
	}
	checkAgainstBrute(t, n, nil)
}

// Listing 4 / Fig. 4(b): the j > 4 branch constraint shrinks the domain
// from 14 to 8 points.
func TestListing4BranchConstraint(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(4), Step: 1}).
		WithLoop(Loop{Var: "j", Lo: expr.NewAdd(expr.V("i"), expr.Const(1)), Hi: expr.Const(6), Step: 1}).
		WithGuard(Guard{Kind: AffineGE, E: expr.NewSub(expr.V("j"), expr.Const(5))}) // j > 4 <=> j-5 >= 0
	if got := evalCount(t, n, nil); got != 8 {
		t.Errorf("count = %d, want 8", got)
	}
	checkAgainstBrute(t, n, nil)
}

// Listing 5: if (j % 4 != 0) punches holes; complement trick gives
// 14 - 3 = 11.
func TestListing5ModuloHoles(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(4), Step: 1}).
		WithLoop(Loop{Var: "j", Lo: expr.NewAdd(expr.V("i"), expr.Const(1)), Hi: expr.Const(6), Step: 1}).
		WithGuard(Guard{Kind: ModNeq, E: expr.V("j"), Mod: 4, Rem: 0})
	if got := evalCount(t, n, nil); got != 11 {
		t.Errorf("count = %d, want 11", got)
	}
	checkAgainstBrute(t, n, nil)

	// The false branch (j % 4 == 0) must count the 3 excluded points.
	nEq := Nest{Entries: append([]Entry{}, n.Entries[:2]...)}.
		WithGuard(Guard{Kind: ModEq, E: expr.V("j"), Mod: 4, Rem: 0})
	if got := evalCount(t, nEq, nil); got != 3 {
		t.Errorf("false-branch count = %d, want 3", got)
	}
	checkAgainstBrute(t, nEq, nil)
}

// Listing 3: min() lower bound / max() upper bound — non-convex, must be
// rejected with ErrNonConvex.
func TestListing3NonConvexRejected(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(5), Step: 1}).
		WithLoop(Loop{
			Var:  "j",
			Lo:   expr.NewMin(expr.NewSub(expr.Const(6), expr.V("i")), expr.Const(3)),
			Hi:   expr.NewMax(expr.NewSub(expr.Const(8), expr.V("i")), expr.V("i")),
			Step: 1,
		})
	_, err := Count(n)
	if !errors.Is(err, ErrNonConvex) {
		t.Errorf("err = %v, want ErrNonConvex", err)
	}
}

// max() in a lower bound is an intersection — convex and supported.
func TestMaxLowerBoundIsConvex(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(4), Step: 1}).
		WithLoop(Loop{
			Var:  "j",
			Lo:   expr.NewMax(expr.NewAdd(expr.V("i"), expr.Const(1)), expr.Const(5)),
			Hi:   expr.Const(6),
			Step: 1,
		})
	if got := evalCount(t, n, nil); got != 8 {
		t.Errorf("count = %d, want 8", got)
	}
	checkAgainstBrute(t, n, nil)
}

// Parametric rectangular nest: DGEMM-style triple loop over n — closed
// form n^3 with no Sum nodes, evaluated at paper-scale sizes instantly.
func TestParametricRectangular(t *testing.T) {
	mk := func(v string) Loop {
		return Loop{Var: v, Lo: expr.Const(0), Hi: expr.NewSub(expr.P("n"), expr.Const(1)), Step: 1}
	}
	n := Nest{}.WithLoop(mk("i")).WithLoop(mk("j")).WithLoop(mk("k"))
	c := mustCount(t, n)
	if hasSumNode(c) {
		t.Errorf("rectangular count retains Sum: %s", c)
	}
	env := expr.EnvFromInts(map[string]int64{"n": 1024})
	got, err := expr.EvalInt64(c, env)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1024) * 1024 * 1024; got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	// Clamped at zero for empty domains.
	env = expr.EnvFromInts(map[string]int64{"n": 0})
	if got, _ := expr.EvalInt64(c, env); got != 0 {
		t.Errorf("empty domain count = %d", got)
	}
}

// Parametric triangular nest: i in 0..n-1, j in 0..i — n(n+1)/2 closed
// form via the Faulhaber path after the max(0,·) guard is discharged.
func TestParametricTriangularClosedForm(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.NewSub(expr.P("n"), expr.Const(1)), Step: 1}).
		WithLoop(Loop{Var: "j", Lo: expr.Const(0), Hi: expr.V("i"), Step: 1})
	c := mustCount(t, n)
	if hasSumNode(c) {
		t.Errorf("parametric triangular count retains Sum: %s", c)
	}
	for _, nv := range []int64{1, 5, 100, 100000} {
		env := expr.EnvFromInts(map[string]int64{"n": nv})
		got, err := expr.EvalInt64(c, env)
		if err != nil {
			t.Fatal(err)
		}
		if want := nv * (nv + 1) / 2; got != want {
			t.Errorf("n=%d: count = %d, want %d", nv, got, want)
		}
	}
}

func hasSumNode(e expr.Expr) bool {
	switch x := e.(type) {
	case expr.Sum:
		return true
	case expr.Add:
		for _, t := range x.Terms {
			if hasSumNode(t) {
				return true
			}
		}
	case expr.Mul:
		for _, f := range x.Factors {
			if hasSumNode(f) {
				return true
			}
		}
	case expr.FloorDiv:
		return hasSumNode(x.X)
	case expr.Min:
		return hasSumNode(x.A) || hasSumNode(x.B)
	case expr.Max:
		return hasSumNode(x.A) || hasSumNode(x.B)
	}
	return false
}

// Strided loops: for (i = 0; i <= 10; i += 3) has 4 iterations.
func TestStridedLoop(t *testing.T) {
	n := Nest{}.WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.Const(10), Step: 3})
	if got := evalCount(t, n, nil); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	checkAgainstBrute(t, n, nil)
}

// Strided loop with a dependent inner bound: substitution v = lo + s*t.
func TestStridedLoopDependentBody(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.Const(9), Step: 2}).
		WithLoop(Loop{Var: "j", Lo: expr.Const(0), Hi: expr.V("i"), Step: 1})
	// i = 0,2,4,6,8 -> inner trips 1,3,5,7,9 = 25.
	if got := evalCount(t, n, nil); got != 25 {
		t.Errorf("count = %d, want 25", got)
	}
	checkAgainstBrute(t, n, nil)
}

// Congruence with ==: count multiples of 5 in [1, 100].
func TestModEqCount(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.P("n"), Step: 1}).
		WithGuard(Guard{Kind: ModEq, E: expr.V("i"), Mod: 5, Rem: 0})
	env := expr.EnvFromInts(map[string]int64{"n": 100})
	if got := evalCount(t, n, env); got != 20 {
		t.Errorf("count = %d, want 20", got)
	}
	checkAgainstBrute(t, n, env)
}

// Congruence with an offset expression (i+1) % 3 == 0.
func TestModWithOffset(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.Const(20), Step: 1}).
		WithGuard(Guard{Kind: ModEq, E: expr.NewAdd(expr.V("i"), expr.Const(1)), Mod: 3, Rem: 0})
	// i+1 in {3,6,9,12,15,18,21} -> 7 points.
	if got := evalCount(t, n, nil); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
	checkAgainstBrute(t, n, nil)
}

// Congruence guard combined with a var-dependent body enumerates exactly.
func TestModWithDependentBody(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(12), Step: 1}).
		WithGuard(Guard{Kind: ModNeq, E: expr.V("i"), Mod: 4, Rem: 0}).
		WithLoop(Loop{Var: "j", Lo: expr.Const(1), Hi: expr.V("i"), Step: 1})
	// sum over i in 1..12, i % 4 != 0, of i = 78 - (4+8+12) = 54.
	if got := evalCount(t, n, nil); got != 54 {
		t.Errorf("count = %d, want 54", got)
	}
	checkAgainstBrute(t, n, nil)
}

// Scale guards implement br_frac annotations.
func TestScaleGuard(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(100), Step: 1}).
		WithGuard(Guard{Kind: Scale, Frac: rational.FromFrac(1, 4)})
	if got := evalCount(t, n, nil); got != 25 {
		t.Errorf("count = %d, want 25", got)
	}
}

// A guard over parameters only cannot be decided statically.
func TestParamOnlyGuardRejected(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(10), Step: 1}).
		WithGuard(Guard{Kind: AffineGE, E: expr.NewSub(expr.P("p"), expr.Const(3))})
	if _, err := Count(n); err == nil {
		t.Error("expected error for parameter-only guard")
	}
}

// A constant guard folds to keep-all or drop-all.
func TestConstantGuardFolds(t *testing.T) {
	base := Nest{}.WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(10), Step: 1})
	kept := base.WithGuard(Guard{Kind: AffineGE, E: expr.Const(5)})
	if got := evalCount(t, kept, nil); got != 10 {
		t.Errorf("kept count = %d", got)
	}
	dropped := base.WithGuard(Guard{Kind: AffineGE, E: expr.Const(-1)})
	if got := evalCount(t, dropped, nil); got != 0 {
		t.Errorf("dropped count = %d", got)
	}
}

// Zero-trip and negative-span loops clamp to zero.
func TestEmptyDomains(t *testing.T) {
	n := Nest{}.WithLoop(Loop{Var: "i", Lo: expr.Const(5), Hi: expr.Const(1), Step: 1})
	if got := evalCount(t, n, nil); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
	// Inner empty for some outer values only.
	n2 := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.Const(8), Step: 1}).
		WithLoop(Loop{Var: "j", Lo: expr.V("i"), Hi: expr.Const(4), Step: 1})
	// j from i..4: i=1:4, 2:3, 3:2, 4:1, 5..8:0 -> 10.
	if got := evalCount(t, n2, nil); got != 10 {
		t.Errorf("count = %d, want 10", got)
	}
	checkAgainstBrute(t, n2, nil)
}

// Invalid loops are rejected.
func TestInvalidLoops(t *testing.T) {
	n := Nest{}.WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.Const(9), Step: 0})
	if _, err := Count(n); err == nil {
		t.Error("zero step accepted")
	}
	n = Nest{}.WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.Const(9), Step: -1})
	if _, err := Count(n); err == nil {
		t.Error("negative step accepted")
	}
}

// Randomized cross-check of symbolic counting vs brute enumeration over
// assorted nests with guards.
func TestRandomNestsAgainstBrute(t *testing.T) {
	shapes := []Nest{
		Nest{}.
			WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.P("n"), Step: 1}).
			WithLoop(Loop{Var: "j", Lo: expr.V("i"), Hi: expr.P("n"), Step: 1}),
		Nest{}.
			WithLoop(Loop{Var: "i", Lo: expr.Const(1), Hi: expr.P("n"), Step: 2}).
			WithLoop(Loop{Var: "j", Lo: expr.Const(0), Hi: expr.NewAdd(expr.V("i"), expr.P("m")), Step: 1}),
		Nest{}.
			WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.P("n"), Step: 1}).
			WithGuard(Guard{Kind: ModNeq, E: expr.V("i"), Mod: 3, Rem: 1}).
			WithLoop(Loop{Var: "j", Lo: expr.Const(0), Hi: expr.P("m"), Step: 1}),
		Nest{}.
			WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.P("n"), Step: 1}).
			WithLoop(Loop{Var: "j", Lo: expr.Const(0), Hi: expr.P("m"), Step: 1}).
			WithGuard(Guard{Kind: AffineGE, E: expr.NewSub(expr.V("j"), expr.V("i"))}),
	}
	for si, shape := range shapes {
		for nv := int64(0); nv <= 6; nv++ {
			for mv := int64(0); mv <= 5; mv++ {
				env := expr.EnvFromInts(map[string]int64{"n": nv, "m": mv})
				got := evalCount(t, shape, env)
				want := bruteCount(t, shape, env)
				if got != want {
					t.Errorf("shape %d n=%d m=%d: symbolic=%d brute=%d",
						si, nv, mv, got, want)
				}
			}
		}
	}
}

// Regression: affine guards on strided loops must respect stride phase —
// for i in {0,2,4,...,10}, the guard i > 0 keeps 5 points, not the 6
// lattice points of [1,11].
func TestStridedLoopWithGuardPhase(t *testing.T) {
	n := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.Const(11), Step: 2}).
		WithGuard(Guard{Kind: AffineGE, E: expr.NewSub(expr.V("i"), expr.Const(1))}) // i > 0
	if got := evalCount(t, n, nil); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	checkAgainstBrute(t, n, nil)

	// Parametric variant with a dependent inner loop.
	n2 := Nest{}.
		WithLoop(Loop{Var: "i", Lo: expr.Const(0), Hi: expr.P("n"), Step: 3}).
		WithGuard(Guard{Kind: AffineGE, E: expr.NewSub(expr.V("i"), expr.Const(2))}).
		WithLoop(Loop{Var: "j", Lo: expr.Const(0), Hi: expr.V("i"), Step: 1})
	for nv := int64(0); nv <= 14; nv++ {
		env := expr.EnvFromInts(map[string]int64{"n": nv})
		checkAgainstBrute(t, n2, env)
	}
}
