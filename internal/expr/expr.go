// Package expr implements the symbolic expression engine behind Mira's
// parametric performance models.
//
// A model that depends on unknown inputs (array sizes, annotation
// parameters) is represented as an expression tree over exact rationals,
// parameters, and bound summation variables. The engine provides:
//
//   - smart constructors with algebraic simplification (constant folding,
//     flattening, like-term collection),
//   - closed-form summation via Faulhaber polynomials so that loop-nest
//     counts evaluate in O(1) rather than by enumeration (paper Sec. IV-D1:
//     "the model ... can be evaluated at low computational cost"),
//   - exact evaluation under a parameter binding, and
//   - Python source emission, matching the paper's generated-model artifact
//     (Fig. 5).
package expr

import (
	"fmt"
	"sort"
	"strings"

	"mira/internal/rational"
)

// Expr is a symbolic expression. Implementations are immutable; build them
// with the package constructors, which simplify eagerly.
type Expr interface {
	// String renders a human-readable form.
	String() string
	isExpr()
}

// Num is an exact rational constant.
type Num struct{ Val rational.Rat }

// Param is a free model parameter (function argument, annotation variable).
type Param struct{ Name string }

// Var is a summation-bound variable; it only appears beneath a Sum that
// binds it.
type Var struct{ Name string }

// Add is a flattened n-ary sum.
type Add struct{ Terms []Expr }

// Mul is a flattened n-ary product.
type Mul struct{ Factors []Expr }

// FloorDiv is floor(X / D) with D a nonzero constant.
type FloorDiv struct {
	X Expr
	D rational.Rat
}

// Min is the minimum of two expressions.
type Min struct{ A, B Expr }

// Max is the maximum of two expressions.
type Max struct{ A, B Expr }

// Sum is an inclusive summation: sum over Var in [Lo, Hi] of Body. When
// Hi < Lo the sum is empty (zero).
type Sum struct {
	Var    string
	Lo, Hi Expr
	Body   Expr
}

func (Num) isExpr()      {}
func (Param) isExpr()    {}
func (Var) isExpr()      {}
func (Add) isExpr()      {}
func (Mul) isExpr()      {}
func (FloorDiv) isExpr() {}
func (Min) isExpr()      {}
func (Max) isExpr()      {}
func (Sum) isExpr()      {}

// ---------------------------------------------------------------------------
// Constructors

// Const returns the integer constant n.
func Const(n int64) Expr {
	if n >= minSmall && n <= maxSmall {
		return smallNums[n-minSmall]
	}
	return Num{rational.FromInt(n)}
}

// ConstRat returns the rational constant r.
func ConstRat(r rational.Rat) Expr { return num(r) }

// Boxing a Num into an Expr allocates its 24 bytes, so the small integers
// that counts are built from are boxed once: smallNums[i] is the constant
// minSmall+i. The table is never written after initialization.
const (
	minSmall = -1
	maxSmall = 16
)

var smallNums = func() (t [maxSmall - minSmall + 1]Expr) {
	for i := range t {
		t[i] = Num{rational.FromInt(int64(i) + minSmall)}
	}
	return t
}()

// num boxes r, without allocating when r is a small integer.
func num(r rational.Rat) Expr {
	if v, ok := r.Int64(); ok && v >= minSmall && v <= maxSmall {
		return smallNums[v-minSmall]
	}
	return Num{r}
}

// P returns the parameter named name.
func P(name string) Expr { return Param{name} }

// V returns the bound variable named name.
func V(name string) Expr { return Var{name} }

// IsZero reports whether e is the constant 0.
func IsZero(e Expr) bool {
	n, ok := e.(Num)
	return ok && n.Val.Sign() == 0
}

// IsOne reports whether e is the constant 1.
func IsOne(e Expr) bool {
	n, ok := e.(Num)
	return ok && n.Val.Equal(rational.One)
}

// ConstVal returns the constant value of e if e is a Num.
func ConstVal(e Expr) (rational.Rat, bool) {
	n, ok := e.(Num)
	if !ok {
		return rational.Rat{}, false
	}
	return n.Val, true
}

// NewAdd returns the simplified sum of terms.
func NewAdd(terms ...Expr) Expr {
	var flat []Expr
	c := rational.Zero
	for _, t := range terms {
		switch x := t.(type) {
		case Num:
			c = c.Add(x.Val)
		case Add:
			for _, tt := range x.Terms {
				if n, ok := tt.(Num); ok {
					c = c.Add(n.Val)
				} else {
					flat = append(flat, tt)
				}
			}
		default:
			flat = append(flat, t)
		}
	}
	flat = collectLikeTerms(flat)
	if c.Sign() != 0 || len(flat) == 0 {
		flat = append(flat, num(c))
	}
	if len(flat) == 1 {
		return flat[0]
	}
	sortExprs(flat)
	return Add{Terms: flat}
}

// collectLikeTerms merges structurally identical non-constant terms k*t
// into single terms with summed coefficients.
func collectLikeTerms(terms []Expr) []Expr {
	type entry struct {
		base  Expr
		coeff rational.Rat
	}
	var order []string
	byKey := map[string]*entry{}
	for _, t := range terms {
		coeff, base := splitCoeff(t)
		key := base.String()
		if e, ok := byKey[key]; ok {
			e.coeff = e.coeff.Add(coeff)
			continue
		}
		byKey[key] = &entry{base: base, coeff: coeff}
		order = append(order, key)
	}
	var out []Expr
	for _, k := range order {
		e := byKey[k]
		if e.coeff.Sign() == 0 {
			continue
		}
		if e.coeff.Equal(rational.One) {
			out = append(out, e.base)
		} else {
			out = append(out, NewMul(num(e.coeff), e.base))
		}
	}
	return out
}

// splitCoeff splits t into (constant coefficient, residual factor).
func splitCoeff(t Expr) (rational.Rat, Expr) {
	m, ok := t.(Mul)
	if !ok {
		return rational.One, t
	}
	c := rational.One
	var rest []Expr
	for _, f := range m.Factors {
		if n, ok := f.(Num); ok {
			c = c.Mul(n.Val)
		} else {
			rest = append(rest, f)
		}
	}
	switch len(rest) {
	case 0:
		return c, Const(1)
	case 1:
		return c, rest[0]
	default:
		return c, Mul{Factors: rest}
	}
}

// NewMul returns the simplified product of factors.
func NewMul(factors ...Expr) Expr {
	var flat []Expr
	c := rational.One
	for _, f := range factors {
		switch x := f.(type) {
		case Num:
			c = c.Mul(x.Val)
		case Mul:
			for _, ff := range x.Factors {
				if n, ok := ff.(Num); ok {
					c = c.Mul(n.Val)
				} else {
					flat = append(flat, ff)
				}
			}
		default:
			flat = append(flat, f)
		}
	}
	if c.Sign() == 0 {
		return Const(0)
	}
	if len(flat) == 0 {
		return num(c)
	}
	// Distribute a constant over a single Add factor: 3*(a+b) -> 3a+3b.
	// This keeps count expressions in expanded (collectible) form.
	if len(flat) == 1 {
		if add, ok := flat[0].(Add); ok && !c.Equal(rational.One) {
			terms := make([]Expr, len(add.Terms))
			for i, t := range add.Terms {
				terms[i] = NewMul(num(c), t)
			}
			return NewAdd(terms...)
		}
	}
	if !c.Equal(rational.One) {
		flat = append([]Expr{num(c)}, flat...)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	sortExprs(flat[boolToInt(!c.Equal(rational.One)):])
	return Mul{Factors: flat}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// NewSub returns a - b.
func NewSub(a, b Expr) Expr { return NewAdd(a, NewMul(Const(-1), b)) }

// NewNeg returns -a.
func NewNeg(a Expr) Expr { return NewMul(Const(-1), a) }

// NewFloorDiv returns floor(x / d) for nonzero constant d.
func NewFloorDiv(x Expr, d rational.Rat) Expr {
	if d.Sign() == 0 {
		panic("expr: floor division by zero")
	}
	if d.Equal(rational.One) {
		// floor of an integer-valued expression; count expressions are
		// integer-valued by construction.
		return x
	}
	if n, ok := x.(Num); ok {
		return num(n.Val.FloorDiv(d))
	}
	return FloorDiv{X: x, D: d}
}

// NewMin returns min(a, b), folding constants.
func NewMin(a, b Expr) Expr {
	na, oka := a.(Num)
	nb, okb := b.(Num)
	if oka && okb {
		return num(na.Val.Min(nb.Val))
	}
	if a.String() == b.String() {
		return a
	}
	return Min{A: a, B: b}
}

// NewMax returns max(a, b), folding constants.
func NewMax(a, b Expr) Expr {
	na, oka := a.(Num)
	nb, okb := b.(Num)
	if oka && okb {
		return num(na.Val.Max(nb.Val))
	}
	if a.String() == b.String() {
		return a
	}
	return Max{A: a, B: b}
}

// NewSum returns sum_{v=lo}^{hi} body, simplified:
//
//   - empty or single-point ranges fold,
//   - a body independent of v becomes trips(lo,hi) * body,
//   - a polynomial body is replaced by its Faulhaber closed form,
//   - otherwise a Sum node remains and evaluation enumerates the range.
func NewSum(v string, lo, hi, body Expr) Expr {
	if IsZero(body) {
		return Const(0)
	}
	if cl, okl := ConstVal(lo); okl {
		if ch, okh := ConstVal(hi); okh {
			if ch.Cmp(cl) < 0 {
				return Const(0)
			}
			if ch.Equal(cl) {
				return Substitute(body, v, Num{cl})
			}
		}
	}
	if !DependsOn(body, v) {
		trips := NewAdd(NewSub(hi, lo), Const(1))
		return NewMul(trips, body)
	}
	// Try the polynomial (Faulhaber) closed form.
	if closed, ok := sumPolynomial(v, lo, hi, body); ok {
		return closed
	}
	return Sum{Var: v, Lo: lo, Hi: hi, Body: body}
}

// Trips returns the count of v in [lo, hi] stepping by step (> 0), clamped
// at zero: max(0, floor((hi-lo)/step) + 1).
func Trips(lo, hi Expr, step int64) Expr {
	if step <= 0 {
		panic("expr: Trips requires positive step")
	}
	span := NewSub(hi, lo)
	var trips Expr
	if step == 1 {
		trips = NewAdd(span, Const(1))
	} else {
		trips = NewAdd(NewFloorDiv(span, rational.FromInt(step)), Const(1))
	}
	return NewMax(Const(0), trips)
}

// DependsOn reports whether e references the variable or parameter name.
func DependsOn(e Expr, name string) bool {
	switch x := e.(type) {
	case Num:
		return false
	case Param:
		return x.Name == name
	case Var:
		return x.Name == name
	case Add:
		for _, t := range x.Terms {
			if DependsOn(t, name) {
				return true
			}
		}
	case Mul:
		for _, f := range x.Factors {
			if DependsOn(f, name) {
				return true
			}
		}
	case FloorDiv:
		return DependsOn(x.X, name)
	case Min:
		return DependsOn(x.A, name) || DependsOn(x.B, name)
	case Max:
		return DependsOn(x.A, name) || DependsOn(x.B, name)
	case Sum:
		if DependsOn(x.Lo, name) || DependsOn(x.Hi, name) {
			return true
		}
		if x.Var == name {
			return false // shadowed
		}
		return DependsOn(x.Body, name)
	}
	return false
}

// Substitute replaces every occurrence of the variable or parameter name
// with repl, rebuilding (and thus re-simplifying) the tree.
func Substitute(e Expr, name string, repl Expr) Expr {
	switch x := e.(type) {
	case Num:
		return x
	case Param:
		if x.Name == name {
			return repl
		}
		return x
	case Var:
		if x.Name == name {
			return repl
		}
		return x
	case Add:
		terms := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = Substitute(t, name, repl)
		}
		return NewAdd(terms...)
	case Mul:
		fs := make([]Expr, len(x.Factors))
		for i, f := range x.Factors {
			fs[i] = Substitute(f, name, repl)
		}
		return NewMul(fs...)
	case FloorDiv:
		return NewFloorDiv(Substitute(x.X, name, repl), x.D)
	case Min:
		return NewMin(Substitute(x.A, name, repl), Substitute(x.B, name, repl))
	case Max:
		return NewMax(Substitute(x.A, name, repl), Substitute(x.B, name, repl))
	case Sum:
		lo := Substitute(x.Lo, name, repl)
		hi := Substitute(x.Hi, name, repl)
		body := x.Body
		if x.Var != name {
			body = Substitute(body, name, repl)
		}
		return NewSum(x.Var, lo, hi, body)
	}
	return e
}

// SubstituteAll replaces every parameter or variable named in repl with
// its mapped expression, simultaneously: replacement expressions are
// never re-examined for further substitution, so a swap like
// {a: b, b: a} is safe. Summation variables shadow: beneath a Sum that
// binds a name in repl, that name is left alone in the body (bounds are
// evaluated in the outer scope, exactly like evalSum). Capture is
// avoided: when a replacement expression's free names include a Sum's
// bound variable, the bound variable is alpha-renamed first, so the
// replacement keeps referring to the outer binding. The tree is rebuilt
// through the smart constructors, so the result re-simplifies.
//
// This is the primitive symbolic inlining stands on: a callee's
// expressions are rewritten into the caller's parameter space by
// substituting the whole argument-binding environment at once, which
// sequential Substitute calls would corrupt whenever an argument
// expression mentions another parameter being bound in the same call.
func SubstituteAll(e Expr, repl map[string]Expr) Expr {
	if len(repl) == 0 {
		return e
	}
	switch x := e.(type) {
	case Num:
		return x
	case Param:
		if r, ok := repl[x.Name]; ok {
			return r
		}
		return x
	case Var:
		// Evaluation resolves Param and Var through one namespace, so
		// substitution must too.
		if r, ok := repl[x.Name]; ok {
			return r
		}
		return x
	case Add:
		terms := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = SubstituteAll(t, repl)
		}
		return NewAdd(terms...)
	case Mul:
		fs := make([]Expr, len(x.Factors))
		for i, f := range x.Factors {
			fs[i] = SubstituteAll(f, repl)
		}
		return NewMul(fs...)
	case FloorDiv:
		return NewFloorDiv(SubstituteAll(x.X, repl), x.D)
	case Min:
		return NewMin(SubstituteAll(x.A, repl), SubstituteAll(x.B, repl))
	case Max:
		return NewMax(SubstituteAll(x.A, repl), SubstituteAll(x.B, repl))
	case Sum:
		lo := SubstituteAll(x.Lo, repl)
		hi := SubstituteAll(x.Hi, repl)
		bound, body := x.Var, x.Body
		// The bound variable shadows any replacement of the same name
		// inside the body (bounds are outer-scope, already handled).
		inner := repl
		if _, shadowed := repl[bound]; shadowed {
			inner = make(map[string]Expr, len(repl)-1)
			for k, v := range repl {
				if k != bound {
					inner[k] = v
				}
			}
		}
		if len(inner) == 0 {
			return NewSum(bound, lo, hi, body)
		}
		// Capture avoidance: evaluation resolves the summation index and
		// parameters through one namespace, so a replacement that freely
		// mentions the bound name would be hijacked by the index. Rename
		// the bound variable out of the way first.
		captures := false
		for _, r := range inner {
			if DependsOn(r, bound) {
				captures = true
				break
			}
		}
		if captures {
			avoid := map[string]bool{}
			collectNames(body, avoid)
			for k, r := range inner {
				avoid[k] = true
				collectNames(r, avoid)
			}
			fresh := freshName(bound, avoid)
			body = SubstituteAll(body, map[string]Expr{bound: V(fresh)})
			bound = fresh
		}
		return NewSum(bound, lo, hi, SubstituteAll(body, inner))
	}
	return e
}

// collectNames adds every name e mentions — parameters, variables,
// summation binders — to set.
func collectNames(e Expr, set map[string]bool) {
	switch x := e.(type) {
	case Param:
		set[x.Name] = true
	case Var:
		set[x.Name] = true
	case Add:
		for _, t := range x.Terms {
			collectNames(t, set)
		}
	case Mul:
		for _, f := range x.Factors {
			collectNames(f, set)
		}
	case FloorDiv:
		collectNames(x.X, set)
	case Min:
		collectNames(x.A, set)
		collectNames(x.B, set)
	case Max:
		collectNames(x.A, set)
		collectNames(x.B, set)
	case Sum:
		set[x.Var] = true
		collectNames(x.Lo, set)
		collectNames(x.Hi, set)
		collectNames(x.Body, set)
	}
}

// freshName derives a name based on base that is absent from avoid.
func freshName(base string, avoid map[string]bool) string {
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s#%d", base, i)
		if !avoid[cand] {
			return cand
		}
	}
}

// Params returns the free parameter names of e, sorted.
func Params(e Expr) []string {
	set := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Param:
			set[x.Name] = true
		case Add:
			for _, t := range x.Terms {
				walk(t)
			}
		case Mul:
			for _, f := range x.Factors {
				walk(f)
			}
		case FloorDiv:
			walk(x.X)
		case Min:
			walk(x.A)
			walk(x.B)
		case Max:
			walk(x.A)
			walk(x.B)
		case Sum:
			walk(x.Lo)
			walk(x.Hi)
			walk(x.Body)
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// sortExprs orders constants first, then the rest by rendering.
func sortExprs(es []Expr) {
	sort.SliceStable(es, func(i, j int) bool {
		_, ni := es[i].(Num)
		_, nj := es[j].(Num)
		if ni || nj {
			return ni && !nj
		}
		return es[i].String() < es[j].String()
	})
}

// ---------------------------------------------------------------------------
// Rendering

func (e Num) String() string   { return e.Val.String() }
func (e Param) String() string { return e.Name }
func (e Var) String() string   { return e.Name }

func (e Add) String() string {
	parts := make([]string, len(e.Terms))
	for i, t := range e.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

func (e Mul) String() string {
	parts := make([]string, len(e.Factors))
	for i, f := range e.Factors {
		parts[i] = f.String()
	}
	return strings.Join(parts, "*")
}

func (e FloorDiv) String() string {
	return "floor(" + e.X.String() + " / " + e.D.String() + ")"
}

func (e Min) String() string { return "min(" + e.A.String() + ", " + e.B.String() + ")" }
func (e Max) String() string { return "max(" + e.A.String() + ", " + e.B.String() + ")" }

func (e Sum) String() string {
	return "sum(" + e.Var + "=" + e.Lo.String() + ".." + e.Hi.String() + ")[" + e.Body.String() + "]"
}

// Equal reports structural equality after simplification.
func Equal(a, b Expr) bool { return a.String() == b.String() }
