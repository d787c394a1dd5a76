package rational

import (
	"testing"
	"testing/quick"
)

func TestBasicArithmetic(t *testing.T) {
	a := FromFrac(1, 2)
	b := FromFrac(1, 3)
	if got := a.Add(b).String(); got != "5/6" {
		t.Errorf("1/2 + 1/3 = %s", got)
	}
	if got := a.Sub(b).String(); got != "1/6" {
		t.Errorf("1/2 - 1/3 = %s", got)
	}
	if got := a.Mul(b).String(); got != "1/6" {
		t.Errorf("1/2 * 1/3 = %s", got)
	}
	if got := a.Div(b).String(); got != "3/2" {
		t.Errorf("1/2 / 1/3 = %s", got)
	}
	if got := a.Neg().String(); got != "-1/2" {
		t.Errorf("-(1/2) = %s", got)
	}
}

func TestZeroValue(t *testing.T) {
	var z Rat
	if z.Sign() != 0 {
		t.Error("zero value sign != 0")
	}
	if got := z.Add(FromInt(3)).String(); got != "3" {
		t.Errorf("0 + 3 = %s", got)
	}
	if !z.IsInt() {
		t.Error("zero not integral")
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		num, den    int64
		floor, ceil int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 2, 3, 3},
		{-6, 2, -3, -3},
		{0, 5, 0, 0},
		{1, 3, 0, 1},
		{-1, 3, -1, 0},
	}
	for _, c := range cases {
		r := FromFrac(c.num, c.den)
		if f, _ := r.Floor().Int64(); f != c.floor {
			t.Errorf("floor(%d/%d) = %d, want %d", c.num, c.den, f, c.floor)
		}
		if f, _ := r.Ceil().Int64(); f != c.ceil {
			t.Errorf("ceil(%d/%d) = %d, want %d", c.num, c.den, f, c.ceil)
		}
	}
}

func TestFloorDivMatchesIntegerDivision(t *testing.T) {
	f := func(a int64, b int64) bool {
		if b == 0 {
			return true
		}
		got, ok := FromInt(a).FloorDiv(FromInt(b)).Int64()
		if !ok {
			return false
		}
		// Euclidean-style floor division reference.
		q := a / b
		if (a%b != 0) && ((a < 0) != (b < 0)) {
			q--
		}
		return got == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpMinMax(t *testing.T) {
	a, b := FromInt(2), FromInt(5)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp misordered")
	}
	if !a.Min(b).Equal(a) || !a.Max(b).Equal(b) {
		t.Error("Min/Max wrong")
	}
}

func TestInt64Conversion(t *testing.T) {
	if v, ok := FromInt(42).Int64(); !ok || v != 42 {
		t.Errorf("Int64(42) = %d, %t", v, ok)
	}
	if _, ok := FromFrac(1, 2).Int64(); ok {
		t.Error("1/2 converted to int64")
	}
}

func TestFromFloat(t *testing.T) {
	r, err := FromFloat(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "1/4" {
		t.Errorf("FromFloat(0.25) = %s", got)
	}
}

func TestNumDen(t *testing.T) {
	n, d := FromFrac(6, 4).NumDen()
	if n != 3 || d != 2 {
		t.Errorf("NumDen(6/4) = %d/%d, want 3/2", n, d)
	}
}

func TestPythonString(t *testing.T) {
	if got := FromInt(7).PythonString(); got != "7" {
		t.Errorf("PythonString(7) = %q", got)
	}
	if got := FromFrac(-1, 2).PythonString(); got != "Fraction(-1, 2)" {
		t.Errorf("PythonString(1/2) = %q", got)
	}
}

func TestArithmeticProperties(t *testing.T) {
	add := func(a, b int64) bool {
		return FromInt(a).Add(FromInt(b)).Equal(FromInt(b).Add(FromInt(a)))
	}
	if err := quick.Check(add, nil); err != nil {
		t.Error("addition not commutative:", err)
	}
	distr := func(a, b, c int32) bool {
		ra, rb, rc := FromInt(int64(a)), FromInt(int64(b)), FromInt(int64(c))
		lhs := ra.Mul(rb.Add(rc))
		rhs := ra.Mul(rb).Add(ra.Mul(rc))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(distr, nil); err != nil {
		t.Error("distributivity fails:", err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on division by zero")
		}
	}()
	FromInt(1).Div(Zero)
}
