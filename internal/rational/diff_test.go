package rational

import (
	"math"
	"math/big"
	"sync"
	"testing"
)

// edgeNums are numerators at the boundaries of the inline form: the
// int64 extremes, the float64 exactness limit, and the halves and
// quarters of the range where products and sums first overflow.
var edgeNums = []int64{
	0, 1, -1, 2, -2, 3, -7, 12,
	1 << 31, -(1 << 31), 1<<31 - 1,
	1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 - 1), -(1 << 53), -(1<<53 + 1),
	1 << 62, -(1 << 62), 1<<62 + 1,
	math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
}

// edgeDens are denominators, including negative ones and those near 2^63.
var edgeDens = []int64{
	1, 2, 3, -1, -6, 1 << 31, 1<<53 + 1, 1 << 62, 1<<62 + 1,
	math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 2, math.MinInt64, math.MinInt64 + 1,
}

// toBig returns a as a fresh or its own math/big.Rat.
func (a Rat) toBig() *big.Rat {
	if a.big != nil {
		return a.big
	}
	return big.NewRat(a.num, a.den())
}

// refString renders a reference value the way Rat.String is specified.
func refString(r *big.Rat) string {
	if r.IsInt() {
		return r.Num().String()
	}
	return r.RatString()
}

// refFloor returns floor(r); big.Int.Div is Euclidean, which is floor
// division for the always-positive denominator.
func refFloor(r *big.Rat) *big.Rat {
	return new(big.Rat).SetInt(new(big.Int).Div(r.Num(), r.Denom()))
}

// fits reports whether r has the inline form.
func fits(r *big.Rat) bool {
	return r.Num().IsInt64() && r.Num().Int64() != math.MinInt64 && r.Denom().IsInt64()
}

// check asserts that x holds exactly the value ref, in canonical form,
// and that every unary accessor agrees with math/big on it.
func check(t *testing.T, what string, x Rat, ref *big.Rat) {
	t.Helper()
	if x.toBig().Cmp(ref) != 0 {
		t.Fatalf("%s = %s, want %s", what, x, refString(ref))
	}
	if fits(ref) != (x.big == nil) {
		t.Fatalf("%s = %s: small form %t, fits in int64 %t", what, x, x.big == nil, fits(ref))
	}
	if x.big == nil && (x.dm1 < 0 || gcd(uabs(x.num), uint64(x.den())) != 1) {
		t.Fatalf("%s: non-canonical small form %d/%d", what, x.num, x.den())
	}
	if got, want := x.String(), refString(ref); got != want {
		t.Fatalf("%s.String() = %q, want %q", what, got, want)
	}
	wantPy := refString(ref)
	if !ref.IsInt() {
		wantPy = "Fraction(" + ref.Num().String() + ", " + ref.Denom().String() + ")"
	}
	if got := x.PythonString(); got != wantPy {
		t.Fatalf("%s.PythonString() = %q, want %q", what, got, wantPy)
	}
	wantF, _ := ref.Float64()
	if got := x.Float64(); math.Float64bits(got) != math.Float64bits(wantF) {
		t.Fatalf("%s.Float64() = %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), wantF, math.Float64bits(wantF))
	}
	if x.Sign() != ref.Sign() || x.IsInt() != ref.IsInt() {
		t.Fatalf("%s: Sign/IsInt = %d/%t, want %d/%t", what, x.Sign(), x.IsInt(), ref.Sign(), ref.IsInt())
	}
	v, ok := x.Int64()
	wantOK := ref.IsInt() && ref.Num().IsInt64()
	if ok != wantOK || (ok && v != ref.Num().Int64()) || (!ok && v != 0) {
		t.Fatalf("%s.Int64() = %d, %t; want ok=%t", what, v, ok, wantOK)
	}
	checkNumDen(t, what, x, ref)
	fl := refFloor(ref)
	if got := x.Floor(); got.toBig().Cmp(fl) != 0 || fits(fl) != (got.big == nil) {
		t.Fatalf("%s.Floor() = %s, want %s", what, got, refString(fl))
	}
	ce := new(big.Rat).Neg(refFloor(new(big.Rat).Neg(ref)))
	if got := x.Ceil(); got.toBig().Cmp(ce) != 0 || fits(ce) != (got.big == nil) {
		t.Fatalf("%s.Ceil() = %s, want %s", what, got, refString(ce))
	}
	neg := new(big.Rat).Neg(ref)
	if got := x.Neg(); got.toBig().Cmp(neg) != 0 || fits(neg) != (got.big == nil) {
		t.Fatalf("%s.Neg() = %s, want %s", what, got, refString(neg))
	}
}

// checkNumDen asserts NumDen returns math/big's numerator and
// denominator, and panics exactly when either does not fit.
func checkNumDen(t *testing.T, what string, x Rat, ref *big.Rat) {
	t.Helper()
	wantPanic := !ref.Num().IsInt64() || !ref.Denom().IsInt64()
	defer func() {
		if p := recover(); (p != nil) != wantPanic {
			t.Fatalf("%s.NumDen() panic = %v, want panic %t", what, p, wantPanic)
		}
	}()
	n, d := x.NumDen()
	if n != ref.Num().Int64() || d != ref.Denom().Int64() {
		t.Fatalf("%s.NumDen() = %d/%d, want %s", what, n, d, ref.RatString())
	}
}

// checkPair asserts every binary operation on a, b against math/big.
func checkPair(t *testing.T, a, b Rat) {
	t.Helper()
	ra, rb := a.toBig(), b.toBig()
	name := "(" + a.String() + ")?(" + b.String() + ")"
	check(t, name+" Add", a.Add(b), new(big.Rat).Add(ra, rb))
	check(t, name+" Sub", a.Sub(b), new(big.Rat).Sub(ra, rb))
	check(t, name+" Mul", a.Mul(b), new(big.Rat).Mul(ra, rb))
	if c, want := a.Cmp(b), ra.Cmp(rb); c != want {
		t.Fatalf("%s Cmp = %d, want %d", name, c, want)
	}
	if a.Equal(b) != (ra.Cmp(rb) == 0) {
		t.Fatalf("%s Equal = %t", name, a.Equal(b))
	}
	want := ra
	if ra.Cmp(rb) < 0 {
		want = rb
	}
	check(t, name+" Max", a.Max(b), want)
	want = ra
	if ra.Cmp(rb) > 0 {
		want = rb
	}
	check(t, name+" Min", a.Min(b), want)
	if b.Sign() != 0 {
		q := new(big.Rat).Quo(ra, rb)
		check(t, name+" Div", a.Div(b), q)
		check(t, name+" FloorDiv", a.FloorDiv(b), refFloor(q))
	}
}

// edgeValues checks the constructors against math/big on every
// edgeNums/edgeDens fraction and returns a sample of them for the
// pairwise checks: each numerator over 1 and over three of the
// denominators in turn.
func edgeValues(t *testing.T) []Rat {
	var out []Rat
	for i, n := range edgeNums {
		x := FromInt(n)
		check(t, "FromInt", x, new(big.Rat).SetInt64(n))
		out = append(out, x)
		for j, d := range edgeDens {
			x := FromFrac(n, d)
			check(t, "FromFrac", x, big.NewRat(n, d))
			if (i+j)%(len(edgeDens)/3) == 0 {
				out = append(out, x)
			}
		}
	}
	// Promoted values: just past either end of the inline range.
	for _, s := range []string{"9223372036854775808", "-9223372036854775809", "1/9223372036854775808", "-36893488147419103232/3"} {
		r, _ := new(big.Rat).SetString(s)
		x := demote(r)
		check(t, "demote("+s+")", x, r)
		out = append(out, x)
	}
	return out
}

// TestMatchesBig is the differential table test: every operation on
// every pair of edge values agrees with math/big, and every result is
// in canonical form.
func TestMatchesBig(t *testing.T) {
	vals := edgeValues(t)
	for _, a := range vals {
		for _, b := range vals {
			checkPair(t, a, b)
		}
	}
}

func TestFromFloatMatchesBig(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.1, -2.5, 1e300, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 63, -(1 << 63), 1<<53 + 2} {
		x, err := FromFloat(f)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "FromFloat", x, new(big.Rat).SetFloat64(f))
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FromFloat(f); err == nil {
			t.Errorf("FromFloat(%v) succeeded", f)
		}
	}
}

// FuzzRatArith checks every operation against math/big on two fuzzed
// fractions, and again with their product, which is promoted to
// math/big whenever it does not fit, as one operand.
func FuzzRatArith(f *testing.F) {
	for i, n := range edgeNums {
		d := edgeDens[i%len(edgeDens)]
		m := edgeNums[(i*7+3)%len(edgeNums)]
		e := edgeDens[(i*5+1)%len(edgeDens)]
		f.Add(n, d, m, e)
	}
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		mk := func(n, d int64) (Rat, *big.Rat) {
			if d == 0 {
				return FromInt(n), new(big.Rat).SetInt64(n)
			}
			return FromFrac(n, d), big.NewRat(n, d)
		}
		a, ra := mk(an, ad)
		b, rb := mk(bn, bd)
		check(t, "a", a, ra)
		check(t, "b", b, rb)
		checkPair(t, a, b)
		c := a.Mul(b)
		checkPair(t, c, a)
		checkPair(t, b, c)
		checkPair(t, c, c.Add(One))
	})
}

// TestScratchNotRetained checks that no result shares memory with the
// pooled scratch values that stand in for small operands: big results
// taken first must keep their values while many later operations, from
// several goroutines at once, reuse the pool.
func TestScratchNotRetained(t *testing.T) {
	huge := demote(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(3), 70), big.NewInt(7)))
	type kept struct {
		x   Rat
		ref *big.Rat
	}
	run := func(seed int64) []kept {
		var out []kept
		for i := range int64(300) {
			s := FromFrac(seed*1000+i-150, i%13+1)
			o := FromFrac(1<<62+i, 3)
			out = append(out,
				kept{huge.Add(s), new(big.Rat).Add(huge.toBig(), s.toBig())},
				kept{s.Mul(huge), new(big.Rat).Mul(s.toBig(), huge.toBig())},
				kept{huge.Div(o), new(big.Rat).Quo(huge.toBig(), o.toBig())},
				kept{o.Mul(o), new(big.Rat).Mul(o.toBig(), o.toBig())},
				kept{o.Add(FromInt(math.MaxInt64)), new(big.Rat).Add(o.toBig(), big.NewRat(math.MaxInt64, 1))})
			if huge.Cmp(s) != 1 || s.Cmp(huge) != -1 {
				t.Errorf("Cmp of %s and %s", huge, s)
			}
		}
		return out
	}
	first := run(0)
	results := make([][]kept, 4)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = run(int64(g + 1))
		}()
	}
	wg.Wait()
	for _, ks := range append(results, first) {
		for _, k := range ks {
			if k.x.toBig().Cmp(k.ref) != 0 {
				t.Fatalf("kept result %s, want %s", k.x, refString(k.ref))
			}
		}
	}
}
