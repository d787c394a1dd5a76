package model

import (
	"math"
	"slices"

	"mira/internal/expr"
)

// The int64 tape: a compiled model's integral multiplicities lowered to
// one flat program over int64 values. Most multiplicities are
// polynomials, min/max clamps and floor divisions over integer
// parameters with integer coefficients; evaluating them as exact
// rationals through expr.Eval costs a type switch and a string-keyed
// map lookup per node. The tape evaluates them with checked int64
// arithmetic instead, and every expression it cannot take (or that
// overflows at a point) stays on the rational path.
//
// Value layout: the first len(slots) values are the parameter slots,
// bound per point; the next len(consts) are the constants, fixed; then
// one value per instruction, in program order. Identical instructions
// are emitted once, so a subexpression shared by several multiplicities
// (dgemm's max(0, n)) is computed once per point.

// Tape opcodes.
const (
	tapeAdd uint8 = iota
	tapeMul
	tapeFloorDiv
	tapeMin
	tapeMax
)

// tapeInstr computes one value from the values at a and b; FloorDiv
// reads only a (b == a) and divides it by k.
type tapeInstr struct {
	op   uint8
	a, b int32
	k    int64
}

// tape is the int64 program of one compiled model.
type tape struct {
	slots  []string // slot i holds parameter slots[i]; sorted
	consts []int64
	code   []tapeInstr
	// exprAt maps each interned expression to the value that holds it,
	// or -1 for an expression the tape cannot take.
	exprAt []int32
}

// width is the length of a value column.
func (t *tape) width() int { return len(t.slots) + len(t.consts) + len(t.code) }

// onTape reports whether e is built only from integral constants,
// parameters, sums, products, floor divisions by an integral divisor,
// min and max — the forms whose rational value at integer parameters is
// the int64 arithmetic's whenever that arithmetic does not overflow.
func onTape(e expr.Expr) bool {
	switch x := e.(type) {
	case expr.Num:
		_, ok := x.Val.Int64()
		return ok
	case expr.Param:
		return true
	case expr.Add:
		for _, t := range x.Terms {
			if !onTape(t) {
				return false
			}
		}
		return true
	case expr.Mul:
		for _, f := range x.Factors {
			if !onTape(f) {
				return false
			}
		}
		return true
	case expr.FloorDiv:
		_, ok := x.D.Int64()
		return ok && onTape(x.X)
	case expr.Min:
		return onTape(x.A) && onTape(x.B)
	case expr.Max:
		return onTape(x.A) && onTape(x.B)
	}
	return false // Var, Sum, a non-integral constant
}

// lowerTape lowers the interned expressions of a compiled model, then
// each term's chain product (see lowerer.chain) into the term's multAt.
func lowerTape(exprs []expr.Expr, terms []term) tape {
	l := lowerer{slotAt: map[string]int32{}, constAt: map[int64]int32{}, instrAt: map[tapeInstr]int32{}}
	var consts []int64
	for _, e := range exprs {
		if onTape(e) {
			l.leaves(e, &consts)
		}
	}
	slices.Sort(l.t.slots)
	slices.Sort(consts)
	for i, s := range l.t.slots {
		l.slotAt[s] = int32(i)
	}
	l.t.consts = slices.Compact(consts)
	for j, c := range l.t.consts {
		l.constAt[c] = int32(len(l.t.slots) + j)
	}
	l.t.exprAt = make([]int32, len(exprs))
	for i, e := range exprs {
		l.t.exprAt[i] = -1
		if onTape(e) {
			l.t.exprAt[i] = l.lower(e)
		}
	}
	for i := range terms {
		terms[i].multAt = l.chain(terms[i].chain)
	}
	return l.t
}

type lowerer struct {
	t       tape
	slotAt  map[string]int32
	constAt map[int64]int32
	instrAt map[tapeInstr]int32 // value numbering
}

// leaves records e's parameters as slots and its constants.
func (l *lowerer) leaves(e expr.Expr, consts *[]int64) {
	switch x := e.(type) {
	case expr.Num:
		v, _ := x.Val.Int64()
		*consts = append(*consts, v)
	case expr.Param:
		if _, ok := l.slotAt[x.Name]; !ok {
			l.slotAt[x.Name] = 0 // indexed after sorting
			l.t.slots = append(l.t.slots, x.Name)
		}
	case expr.Add:
		for _, t := range x.Terms {
			l.leaves(t, consts)
		}
	case expr.Mul:
		for _, f := range x.Factors {
			l.leaves(f, consts)
		}
	case expr.FloorDiv:
		l.leaves(x.X, consts)
	case expr.Min:
		l.leaves(x.A, consts)
		l.leaves(x.B, consts)
	case expr.Max:
		l.leaves(x.A, consts)
		l.leaves(x.B, consts)
	}
}

// lower returns the value index of e (which must be onTape), emitting
// the instructions that compute it.
func (l *lowerer) lower(e expr.Expr) int32 {
	switch x := e.(type) {
	case expr.Num:
		v, _ := x.Val.Int64()
		return l.constAt[v]
	case expr.Param:
		return l.slotAt[x.Name]
	case expr.Add:
		return l.fold(tapeAdd, x.Terms)
	case expr.Mul:
		return l.fold(tapeMul, x.Factors)
	case expr.FloorDiv:
		a := l.lower(x.X)
		d, _ := x.D.Int64()
		return l.emit(tapeInstr{op: tapeFloorDiv, a: a, b: a, k: d})
	case expr.Min:
		return l.emit(tapeInstr{op: tapeMin, a: l.lower(x.A), b: l.lower(x.B)})
	case expr.Max:
		return l.emit(tapeInstr{op: tapeMax, a: l.lower(x.A), b: l.lower(x.B)})
	}
	panic("model: lowering an expression the tape cannot take")
}

// chain returns the value index of a multiplicity chain's product,
// multiplied left to right as chainMult does, when the tape holds every
// element; -1 when it does not, or when the chain has no non-probe
// element. A probe the tape holds cannot fail, so it adds nothing. The
// product equals chainMult's wherever the tape holds it: a zero element
// zeroes it, and any overflow on the way leaves it unknown, which sends
// the term back to chainMult.
func (l *lowerer) chain(chain []chainElem) int32 {
	at := int32(-1)
	for _, el := range chain {
		v := l.t.exprAt[el.idx]
		switch {
		case v < 0:
			return -1
		case el.probe:
		case at < 0:
			at = v
		default:
			at = l.emit(tapeInstr{op: tapeMul, a: at, b: v})
		}
	}
	return at
}

// fold lowers an n-ary sum or product as a left-to-right chain.
func (l *lowerer) fold(op uint8, xs []expr.Expr) int32 {
	acc := l.lower(xs[0])
	for _, x := range xs[1:] {
		acc = l.emit(tapeInstr{op: op, a: acc, b: l.lower(x)})
	}
	return acc
}

// emit appends in unless an identical instruction exists, and returns
// its value index. Every op but FloorDiv is commutative, so operands are
// ordered before lookup.
func (l *lowerer) emit(in tapeInstr) int32 {
	if in.op != tapeFloorDiv && in.b < in.a {
		in.a, in.b = in.b, in.a
	}
	if at, ok := l.instrAt[in]; ok {
		return at
	}
	at := int32(len(l.t.slots) + len(l.t.consts) + len(l.t.code))
	l.t.code = append(l.t.code, in)
	l.instrAt[in] = at
	return at
}

// run computes every instruction over a value column whose slot and
// constant prefix is filled. known marks the values that hold: a bound
// slot, a constant, or an instruction whose operands hold and whose
// result fits int64. run cannot fail: an unknown value only sends the
// expressions that read it to the rational path.
func (t *tape) run(vals []int64, known []bool) {
	base := len(t.slots) + len(t.consts)
	for i := range t.code {
		in := &t.code[i]
		d := base + i
		if !known[in.a] || !known[in.b] {
			known[d] = false
			continue
		}
		x, y := vals[in.a], vals[in.b]
		v, ok := int64(0), true
		switch in.op {
		case tapeAdd:
			v, ok = addChecked(x, y)
		case tapeMul:
			v, ok = mulChecked(x, y)
		case tapeFloorDiv:
			v, ok = floorDiv(x, in.k)
		case tapeMin:
			v = min(x, y)
		case tapeMax:
			v = max(x, y)
		}
		vals[d], known[d] = v, ok
	}
}

// floorDiv returns floor(x / d) for d != 0, rounding toward negative
// infinity like rational.FloorDiv; false when the quotient leaves int64
// (MinInt64 / -1).
func floorDiv(x, d int64) (int64, bool) {
	if d == -1 && x == math.MinInt64 {
		return 0, false
	}
	q := x / d
	if x%d != 0 && (x < 0) != (d < 0) {
		q--
	}
	return q, true
}
