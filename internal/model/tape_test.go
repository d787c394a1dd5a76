package model

import (
	"math"
	"math/rand"
	"testing"

	"mira/internal/expr"
	"mira/internal/rational"
)

// randTapeExpr builds a random expression over n and m from the forms
// the tape takes, with constants that push products and sums across the
// int64 boundary; about one leaf in twelve is a rational constant the
// tape must decline.
func randTapeExpr(rng *rand.Rand, depth int) expr.Expr {
	consts := []int64{0, 1, -1, 2, 3, -7, 1 << 31, math.MaxInt64, math.MinInt64, math.MaxInt64 - 4}
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			return expr.P("n")
		case 4, 5, 6:
			return expr.P("m")
		case 7:
			return expr.ConstRat(rational.FromFrac(1, 2))
		default:
			return expr.Const(consts[rng.Intn(len(consts))])
		}
	}
	a, b := randTapeExpr(rng, depth-1), randTapeExpr(rng, depth-1)
	switch rng.Intn(6) {
	case 0:
		return expr.NewAdd(a, b)
	case 1:
		return expr.NewMul(a, b)
	case 2:
		return expr.NewMin(a, b)
	case 3:
		return expr.NewMax(a, b)
	case 4:
		return expr.NewFloorDiv(a, rational.FromInt([]int64{2, -2, 3, -5, -1, math.MaxInt64}[rng.Intn(6)]))
	default:
		return expr.NewSub(a, b)
	}
}

// TestTapeMatchesRational evaluates seeded random expressions on the
// int64 tape and through expr.Eval at edge values of their parameters:
// a value the tape holds must equal the exact rational one, and an
// expression with a non-integral constant must not be lowered.
func TestTapeMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var exprs []expr.Expr
	for range 400 {
		exprs = append(exprs, randTapeExpr(rng, 4))
	}
	tp := lowerTape(exprs, nil)
	for i, e := range exprs {
		if (tp.exprAt[i] >= 0) != onTape(e) {
			t.Fatalf("%s: on tape %v, lowered to %d", e, onTape(e), tp.exprAt[i])
		}
	}
	edges := []int64{0, 1, -1, 2, -3, 3037000499, -3037000500, 1 << 32, math.MaxInt64, math.MinInt64}
	vals := make([]int64, tp.width())
	known := make([]bool, tp.width())
	for j, c := range tp.consts {
		vals[len(tp.slots)+j], known[len(tp.slots)+j] = c, true
	}
	held := 0
	for _, n := range edges {
		for _, m := range edges {
			env := expr.EnvFromInts(map[string]int64{"n": n, "m": m})
			for i, name := range tp.slots {
				vals[i], known[i] = map[string]int64{"n": n, "m": m}[name], true
			}
			tp.run(vals, known)
			for i, e := range exprs {
				at := tp.exprAt[i]
				if at < 0 || !known[at] {
					continue
				}
				held++
				want, err := expr.Eval(e, env)
				if err != nil {
					t.Fatalf("%s at n=%d m=%d: tape holds %d, rational fails: %v", e, n, m, vals[at], err)
				}
				if got := rational.FromInt(vals[at]); !got.Equal(want) {
					t.Fatalf("%s at n=%d m=%d: tape %d, rational %s", e, n, m, vals[at], want)
				}
			}
		}
	}
	if held == 0 {
		t.Fatal("the tape held no value")
	}
}

// TestTapeSharesSubexpressions: identical subexpressions of different
// multiplicities are computed once, and a bare parameter or constant
// needs no instruction.
func TestTapeSharesSubexpressions(t *testing.T) {
	clamp := expr.NewMax(expr.Const(0), expr.P("n"))
	tp := lowerTape([]expr.Expr{
		clamp,
		expr.NewMul(clamp, clamp),
		expr.NewAdd(expr.Const(1), clamp),
		expr.P("n"),
		expr.Const(4),
	}, nil)
	if len(tp.code) != 3 {
		t.Fatalf("code = %+v, want 3 instructions (max, mul, add)", tp.code)
	}
	if tp.exprAt[3] != 0 || tp.exprAt[4] != int32(len(tp.slots)+2) {
		t.Fatalf("exprAt = %v, slots %v, consts %v", tp.exprAt, tp.slots, tp.consts)
	}
}

// TestTapeChainProducts: a term's chain product is on the tape exactly
// when every element is, probes add no factor, reordered chains share
// one instruction, and the product is the left-to-right checked one:
// unknown on overflow, zero when an element is zero.
func TestTapeChainProducts(t *testing.T) {
	half := expr.ConstRat(rational.FromFrac(1, 2))
	exprs := []expr.Expr{expr.P("n"), expr.P("m"), expr.NewMul(half, expr.P("n"))}
	terms := []term{
		{chain: []chainElem{{idx: 0}, {idx: 1}}},
		{chain: []chainElem{{idx: 0, probe: true}, {idx: 1}}},
		{chain: []chainElem{{idx: 0}, {idx: 2}}},
		{chain: nil},
		{chain: []chainElem{{idx: 1}, {idx: 0}}},
		{chain: []chainElem{{idx: 1, probe: true}}},
	}
	tp := lowerTape(exprs, terms)
	n, m := tp.exprAt[0], tp.exprAt[1]
	want := []int32{terms[0].multAt, m, -1, -1, terms[0].multAt, -1}
	for i, tm := range terms {
		if tm.multAt != want[i] {
			t.Fatalf("term %d: multAt %d, want %d (n at %d, m at %d)", i, tm.multAt, want[i], n, m)
		}
	}
	if terms[0].multAt < 0 || len(tp.code) != 1 {
		t.Fatalf("product not on the tape: multAt %d, code %+v", terms[0].multAt, tp.code)
	}
	for _, c := range []struct {
		n, m      int64
		v         int64
		overflows bool
	}{{3, 4, 12, false}, {0, math.MaxInt64, 0, false}, {1 << 32, 1 << 32, 0, true}, {-5, 7, -35, false}} {
		vals := make([]int64, tp.width())
		known := make([]bool, tp.width())
		vals[n], known[n], vals[m], known[m] = c.n, true, c.m, true
		tp.run(vals, known)
		at := terms[0].multAt
		if known[at] == c.overflows || !c.overflows && vals[at] != c.v {
			t.Fatalf("n=%d m=%d: product %d known %v, want %d overflow %v", c.n, c.m, vals[at], known[at], c.v, c.overflows)
		}
	}
}
