package model

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestMulCheckedMatchesBig checks the overflow-checked product against
// math/big on every pair of the int64 edge values and on seeded random
// pairs: a product that fits must be exact, and one that does not must
// be reported.
func TestMulCheckedMatchesBig(t *testing.T) {
	edges := []int64{0, 1, 2, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		3037000499, 3037000500, 1 << 31, 1 << 32, 1 << 62}
	var vals []int64
	for _, v := range edges {
		vals = append(vals, v, -v)
	}
	check := func(a, b int64) {
		t.Helper()
		want := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		got, ok := mulChecked(a, b)
		if fits := want.IsInt64(); ok != fits || ok && got != want.Int64() {
			t.Fatalf("mulChecked(%d, %d) = %d, %v; want %s (fits %v)", a, b, got, ok, want, fits)
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 100_000 {
		// Mix full-width operands with ones near the overflow boundary.
		a, b := int64(rng.Uint64()), int64(rng.Uint64())
		if rng.Intn(2) == 0 {
			a >>= rng.Intn(64)
			b >>= rng.Intn(64)
		}
		check(a, b)
	}
}

// TestFloorDivMatchesBig checks the tape's floor division against
// math/big's Euclidean division (floor for a positive divisor, mirrored
// for a negative one), including MinInt64 / -1.
func TestFloorDivMatchesBig(t *testing.T) {
	xs := []int64{0, 1, -1, 2, -2, 7, -7, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	ds := []int64{1, -1, 2, -2, 3, -3, math.MaxInt64, math.MinInt64}
	for _, x := range xs {
		for _, d := range ds {
			// floor(x/d) = floor(-x / -d); Div is Euclidean, so divide by
			// a positive divisor.
			nx, nd := big.NewInt(x), big.NewInt(d)
			if d < 0 {
				nx.Neg(nx)
				nd.Neg(nd)
			}
			q := new(big.Int).Div(nx, nd)
			got, ok := floorDiv(x, d)
			if fits := q.IsInt64(); ok != fits || ok && got != q.Int64() {
				t.Errorf("floorDiv(%d, %d) = %d, %v; want %s", x, d, got, ok, q)
			}
		}
	}
}
