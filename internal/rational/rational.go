// Package rational provides exact rational arithmetic for the polyhedral
// model and the symbolic expression engine.
//
// Mira's numbers are loop bounds, lattice-point counts, and Faulhaber
// (Bernoulli) coefficients. Exactness matters — iteration counts are
// integers and the generated model must reproduce them without float
// drift even at 1e10-scale counts — but in the models of the bundled
// programs, analyzed and evaluated at sizes up to n = 1e6, every value
// fits in a pair of machine words. The exception is a fractional
// annotation such as br_frac, which enters as a float64 with a 2^53
// denominator and overflows once scaled by a large size. So a Rat holds
// its numerator and denominator inline as int64s and computes with
// overflow-checked int64 arithmetic. Only a value that does not fit is
// held as a math/big.Rat: an operation whose int64 arithmetic would
// overflow is promoted and recomputed through math/big, and every result
// that fits again is demoted back to the inline form. Each value
// therefore has exactly one representation, and results, renderings and
// comparisons are exactly those of math/big.
package rational

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
	"sync"
)

// Rat is an immutable exact rational number. The zero value is 0.
//
// Invariant: when big is nil the value is num/(dm1+1) in lowest terms,
// and num != math.MinInt64, so negation and absolute value never
// overflow. The denominator is stored minus one so that the zero value
// is the canonical 0/1. big is non-nil only for a value with no such
// form; it is never mutated once built, so copies may share it.
type Rat struct {
	num int64
	dm1 int64 // denominator - 1, in [0, MaxInt64-1]
	big *big.Rat
}

// Zero and One are the common constants.
var (
	Zero = Rat{}
	One  = Rat{num: 1}
)

// maxExact is 2^53: every integer of magnitude up to it is a float64.
const maxExact = 1 << 53

// FromInt returns the rational n/1.
func FromInt(n int64) Rat {
	if n == math.MinInt64 {
		return Rat{big: new(big.Rat).SetInt64(n)}
	}
	return Rat{num: n}
}

// FromFrac returns the rational num/den. It panics if den == 0.
func FromFrac(num, den int64) Rat {
	if den == 0 {
		panic("rational: zero denominator")
	}
	if num == math.MinInt64 || den == math.MinInt64 {
		return demote(big.NewRat(num, den))
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := int64(gcd(uabs(num), uint64(den)))
	return Rat{num: num / g, dm1: den/g - 1}
}

// FromFloat converts a float64 exactly; NaN/Inf yield an error.
func FromFloat(f float64) (Rat, error) {
	r := new(big.Rat)
	if r.SetFloat64(f) == nil {
		return Rat{}, fmt.Errorf("rational: cannot represent %g", f)
	}
	return demote(r), nil
}

// den returns the denominator of a small value.
func (a Rat) den() int64 { return a.dm1 + 1 }

// scratch holds math/big values that stand in for a small operand, or
// hold a result that demotes, when an operation goes through math/big.
// That path then allocates what math/big itself needs and a result that
// stays big, and nothing for the small side. math/big copies its operands
// and keeps no reference to them, so a scratch value is free once the
// operation returns.
//
//lint:ignore mira/noglobals a pool of interchangeable scratch values holds no state a caller can observe; Rat's value methods have no owner to inject it into
var scratch = sync.Pool{New: func() any { return new(big.Rat) }}

// borrow returns a as a math/big value: its own for a big value, a
// scratch value loaded with it for a small one.
func (a Rat) borrow() *big.Rat {
	if a.big != nil {
		return a.big
	}
	s := scratch.Get().(*big.Rat)
	// SetInt64 gives s a one-word denominator, so Denom returns a
	// reference to it that can be set in place; num/den is already in
	// lowest terms.
	s.SetInt64(a.num)
	if a.dm1 != 0 {
		s.Denom().SetInt64(a.den())
	}
	return s
}

// giveBack returns x, obtained from a.borrow, to the pool if it is scratch.
func (a Rat) giveBack(x *big.Rat) {
	if a.big == nil {
		scratch.Put(x)
	}
}

// viaBig returns op(z, a, b) computed on math/big values into a scratch z,
// demoted; z goes back to the pool unless the result stays big.
func viaBig(a, b Rat, op func(z, x, y *big.Rat) *big.Rat) Rat {
	x, y := a.borrow(), b.borrow()
	z := op(scratch.Get().(*big.Rat), x, y)
	a.giveBack(x)
	b.giveBack(y)
	r := demote(z)
	if r.big == nil {
		scratch.Put(z)
	}
	return r
}

// demote returns r in canonical form: small whenever it fits.
func demote(r *big.Rat) Rat {
	n := r.Num()
	if !n.IsInt64() || n.Int64() == math.MinInt64 {
		return Rat{big: r}
	}
	if r.IsInt() {
		return Rat{num: n.Int64()}
	}
	if d := r.Denom(); d.IsInt64() {
		return Rat{num: n.Int64(), dm1: d.Int64() - 1}
	}
	return Rat{big: r}
}

// Add returns a + b.
func (a Rat) Add(b Rat) Rat {
	if a.big == nil && b.big == nil {
		if a.dm1 == 0 && b.dm1 == 0 {
			if s, ok := add64(a.num, b.num); ok {
				return Rat{num: s}
			}
		} else if r, ok := addFrac(a.num, a.den(), b.num, b.den()); ok {
			return r
		}
	}
	return viaBig(a, b, (*big.Rat).Add)
}

// Sub returns a - b.
func (a Rat) Sub(b Rat) Rat { return a.Add(b.Neg()) }

// Mul returns a * b.
func (a Rat) Mul(b Rat) Rat {
	if a.big == nil && b.big == nil {
		if a.dm1 == 0 && b.dm1 == 0 {
			if p, ok := mul64(a.num, b.num); ok {
				return Rat{num: p}
			}
		} else if r, ok := mulFrac(a.num, a.den(), b.num, b.den()); ok {
			return r
		}
	}
	return viaBig(a, b, (*big.Rat).Mul)
}

// Div returns a / b. It panics if b is zero.
func (a Rat) Div(b Rat) Rat {
	if b.Sign() == 0 {
		panic("rational: division by zero")
	}
	if a.big == nil && b.big == nil {
		// a / (n/d) = a * (d/n), with the sign moved to the numerator.
		n, d := b.den(), b.num
		if d < 0 {
			n, d = -n, -d
		}
		if r, ok := mulFrac(a.num, a.den(), n, d); ok {
			return r
		}
	}
	return viaBig(a, b, (*big.Rat).Quo)
}

// Neg returns -a.
func (a Rat) Neg() Rat {
	if a.big == nil {
		return Rat{num: -a.num, dm1: a.dm1}
	}
	return demote(new(big.Rat).Neg(a.big))
}

// Cmp returns -1, 0, or 1 according to a <=> b.
func (a Rat) Cmp(b Rat) int {
	if a.big != nil || b.big != nil {
		x, y := a.borrow(), b.borrow()
		c := x.Cmp(y)
		a.giveBack(x)
		b.giveBack(y)
		return c
	}
	if a.dm1 == b.dm1 {
		return cmp.Compare(a.num, b.num)
	}
	sa, sb := a.Sign(), b.Sign()
	if sa != sb || sa == 0 {
		return cmp.Compare(sa, sb)
	}
	// Same nonzero sign: compare |a.num|*b.den with |b.num|*a.den in
	// 128 bits, then restore the sign.
	h1, l1 := bits.Mul64(uabs(a.num), uint64(b.den()))
	h2, l2 := bits.Mul64(uabs(b.num), uint64(a.den()))
	c := cmp.Compare(h1, h2)
	if c == 0 {
		c = cmp.Compare(l1, l2)
	}
	return sa * c
}

// Sign returns the sign of a.
func (a Rat) Sign() int {
	if a.big != nil {
		return a.big.Sign()
	}
	return cmp.Compare(a.num, 0)
}

// Equal reports a == b.
func (a Rat) Equal(b Rat) bool {
	if a.big == nil && b.big == nil {
		return a.num == b.num && a.dm1 == b.dm1
	}
	return a.Cmp(b) == 0
}

// IsInt reports whether a is an integer.
func (a Rat) IsInt() bool {
	if a.big != nil {
		return a.big.IsInt()
	}
	return a.dm1 == 0
}

// Int64 returns the value as an int64. ok is false when the value is not an
// integer or does not fit.
func (a Rat) Int64() (v int64, ok bool) {
	if a.big == nil {
		if a.dm1 != 0 {
			return 0, false
		}
		return a.num, true
	}
	if !a.big.IsInt() || !a.big.Num().IsInt64() {
		return 0, false
	}
	return a.big.Num().Int64(), true
}

// Floor returns the largest integer <= a.
func (a Rat) Floor() Rat {
	if a.big == nil {
		if a.dm1 == 0 {
			return a
		}
		// Go's division truncates toward zero; step down for negatives.
		q := a.num / a.den()
		if a.num < 0 {
			q--
		}
		return Rat{num: q}
	}
	// Euclidean division is floor division for a positive denominator.
	return demote(new(big.Rat).SetInt(new(big.Int).Div(a.big.Num(), a.big.Denom())))
}

// Ceil returns the smallest integer >= a.
func (a Rat) Ceil() Rat { return a.Neg().Floor().Neg() }

// FloorDiv returns floor(a / b). It panics if b is zero.
func (a Rat) FloorDiv(b Rat) Rat { return a.Div(b).Floor() }

// Max returns the larger of a, b.
func (a Rat) Max(b Rat) Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// Min returns the smaller of a, b.
func (a Rat) Min(b Rat) Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// NumDen returns the numerator and denominator in lowest terms. It panics
// if either does not fit in int64 (counts and steps in Mira's models are
// built from int64 source literals, so this cannot occur in practice).
func (a Rat) NumDen() (num, den int64) {
	if a.big == nil {
		return a.num, a.den()
	}
	if !a.big.Num().IsInt64() || !a.big.Denom().IsInt64() {
		panic("rational: NumDen overflow")
	}
	return a.big.Num().Int64(), a.big.Denom().Int64()
}

// Float64 returns the nearest float64 value.
func (a Rat) Float64() float64 {
	// One correctly rounded division of two exactly represented
	// operands is the nearest float64 to the quotient.
	if a.big == nil && -maxExact <= a.num && a.num <= maxExact && a.den() <= maxExact {
		return float64(a.num) / float64(a.den())
	}
	x := a.borrow()
	f, _ := x.Float64()
	a.giveBack(x)
	return f
}

// String renders the value, as an integer when possible.
func (a Rat) String() string {
	if a.big == nil {
		if a.dm1 == 0 {
			return strconv.FormatInt(a.num, 10)
		}
		b := strconv.AppendInt(make([]byte, 0, 40), a.num, 10)
		b = append(b, '/')
		return string(strconv.AppendInt(b, a.den(), 10))
	}
	if a.big.IsInt() {
		return a.big.Num().String()
	}
	return a.big.RatString()
}

// PythonString renders the value as an exact Python expression: integers
// plain, fractions as Fraction(num, den) from Python's fractions module
// (Python's / would round the quotient to a float).
func (a Rat) PythonString() string {
	if a.IsInt() {
		return a.String()
	}
	num, den, _ := strings.Cut(a.String(), "/")
	return "Fraction(" + num + ", " + den + ")"
}

// addFrac returns a/b + c/d for small operands (b, d >= 1), reduced as in
// Knuth's TAOCP 4.5.1: with g = gcd(b, d) and t = a*(d/g) + c*(b/g), the
// sum is (t/g2) / ((b/g)*(d/g2)) for g2 = gcd(t, g). ok is false on
// int64 overflow.
func addFrac(a, b, c, d int64) (Rat, bool) {
	g := int64(gcd(uint64(b), uint64(d)))
	x, ok1 := mul64(a, d/g)
	y, ok2 := mul64(c, b/g)
	if !ok1 || !ok2 {
		return Rat{}, false
	}
	t, ok := add64(x, y)
	if !ok {
		return Rat{}, false
	}
	if t == 0 {
		return Rat{}, true
	}
	g2 := int64(gcd(uabs(t), uint64(g)))
	den, ok := mul64(b/g, d/g2)
	if !ok {
		return Rat{}, false
	}
	return Rat{num: t / g2, dm1: den - 1}, true
}

// mulFrac returns (a/b) * (c/d) for small operands (b, d >= 1),
// cross-cancelling first so the products are already in lowest terms. ok
// is false on int64 overflow.
func mulFrac(a, b, c, d int64) (Rat, bool) {
	if a == 0 || c == 0 {
		return Rat{}, true
	}
	g1 := int64(gcd(uabs(a), uint64(d)))
	g2 := int64(gcd(uabs(c), uint64(b)))
	num, ok1 := mul64(a/g1, c/g2)
	den, ok2 := mul64(b/g2, d/g1)
	if !ok1 || !ok2 {
		return Rat{}, false
	}
	return Rat{num: num, dm1: den - 1}, true
}

// add64 returns a + b; ok is false when the sum overflows or is
// math.MinInt64 (outside the small form).
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a^s)&(b^s) < 0 || s == math.MinInt64 {
		return 0, false
	}
	return s, true
}

// mul64 returns a * b; ok is false when the magnitude of the product
// exceeds math.MaxInt64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uabs(a), uabs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// uabs returns |a|, exact for every int64.
func uabs(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

// gcd returns the greatest common divisor; gcd(0, b) is b.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
