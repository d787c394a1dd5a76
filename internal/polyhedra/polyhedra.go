// Package polyhedra implements the polyhedral iteration-domain model at the
// heart of Mira's loop analysis (paper Sec. II-B, III-C2, III-C3).
//
// A statement's execution context is a Nest: the ordered chain of enclosing
// loops and branch guards. Each loop contributes affine bounds (possibly
// referencing outer loop variables and free parameters — the paper's
// Listing 2); each guard contributes either an affine inequality, which
// shrinks the polyhedron (Fig. 4b), or a congruence constraint, which
// punches periodic holes in it (Listing 5) and is handled exactly via the
// complement trick the paper describes:
//
//	Count(true branch) = Count(loop total) − Count(false branch).
//
// Count returns a symbolic expression for the number of lattice points.
// When bounds are concrete or the body is polynomial, internal/expr reduces
// it to a closed form (Faulhaber), so model evaluation is O(1) in the
// problem size; otherwise the expression retains Sum nodes that enumerate
// on evaluation.
//
// Non-convex domains — min() lower bounds or max() upper bounds, the
// paper's Listing 3 — are detected and reported as ErrNonConvex so the
// caller can request a user annotation.
package polyhedra

import (
	"errors"
	"fmt"

	"mira/internal/expr"
	"mira/internal/rational"
)

// ErrNonConvex reports a loop whose iteration domain is not a convex set
// (paper Fig. 4d). Such loops need a user annotation.
var ErrNonConvex = errors.New("polyhedra: iteration domain is not convex")

// ErrNotAffine reports bounds or guards outside the affine (SCoP) fragment.
var ErrNotAffine = errors.New("polyhedra: constraint is not affine")

// ErrUnsupported reports a structurally valid but unimplemented case.
var ErrUnsupported = errors.New("polyhedra: unsupported constraint form")

// Loop is one loop level of a nest. Bounds are inclusive and must be affine
// in outer loop variables and free parameters. Step must be positive;
// callers normalize downward-counting loops.
type Loop struct {
	Var  string
	Lo   expr.Expr
	Hi   expr.Expr
	Step int64
}

// GuardKind discriminates guard constraint forms.
type GuardKind int

// Guard kinds.
const (
	// AffineGE is E >= 0.
	AffineGE GuardKind = iota
	// ModEq is E % Mod == Rem.
	ModEq
	// ModNeq is E % Mod != Rem.
	ModNeq
	// Scale multiplies the count by a rational factor in [0,1]; it is how
	// br_frac annotations enter the domain.
	Scale
)

// Guard is a branch constraint applied inside the nest.
type Guard struct {
	Kind GuardKind
	E    expr.Expr    // affine expression (AffineGE, ModEq, ModNeq)
	Mod  int64        // modulus for ModEq/ModNeq
	Rem  int64        // residue for ModEq/ModNeq, normalized to [0, Mod)
	Frac rational.Rat // factor for Scale
}

// Entry is one element of a statement's context chain.
type Entry struct {
	Loop  *Loop
	Guard *Guard
}

// Nest is the ordered context of a statement: loops and guards from
// outermost to innermost.
type Nest struct {
	Entries []Entry
}

// WithLoop returns a nest extended by a loop level.
func (n Nest) WithLoop(l Loop) Nest {
	entries := make([]Entry, len(n.Entries), len(n.Entries)+1)
	copy(entries, n.Entries)
	return Nest{Entries: append(entries, Entry{Loop: &l})}
}

// WithGuard returns a nest extended by a guard.
func (n Nest) WithGuard(g Guard) Nest {
	entries := make([]Entry, len(n.Entries), len(n.Entries)+1)
	copy(entries, n.Entries)
	return Nest{Entries: append(entries, Entry{Guard: &g})}
}

// Loops returns the loop levels in order.
func (n Nest) Loops() []*Loop {
	var out []*Loop
	for _, e := range n.Entries {
		if e.Loop != nil {
			out = append(out, e.Loop)
		}
	}
	return out
}

// checkConvex rejects min() in lower bounds and max() in upper bounds —
// those describe unions of polyhedra, which break convexity (Listing 3 /
// Fig. 4d). max() in a lower bound and min() in an upper bound are fine
// (intersections preserve convexity).
func checkConvex(l *Loop) error {
	if containsKind(l.Lo, kindMin) {
		return fmt.Errorf("%w: loop %q lower bound %s uses min()", ErrNonConvex, l.Var, l.Lo)
	}
	if containsKind(l.Hi, kindMax) {
		return fmt.Errorf("%w: loop %q upper bound %s uses max()", ErrNonConvex, l.Var, l.Hi)
	}
	return nil
}

type exprKind int

const (
	kindMin exprKind = iota
	kindMax
)

func containsKind(e expr.Expr, k exprKind) bool {
	switch x := e.(type) {
	case expr.Min:
		if k == kindMin {
			return true
		}
		return containsKind(x.A, k) || containsKind(x.B, k)
	case expr.Max:
		if k == kindMax {
			return true
		}
		return containsKind(x.A, k) || containsKind(x.B, k)
	case expr.Add:
		for _, t := range x.Terms {
			if containsKind(t, k) {
				return true
			}
		}
	case expr.Mul:
		for _, f := range x.Factors {
			if containsKind(f, k) {
				return true
			}
		}
	case expr.FloorDiv:
		return containsKind(x.X, k)
	case expr.Sum:
		return containsKind(x.Lo, k) || containsKind(x.Hi, k) || containsKind(x.Body, k)
	}
	return false
}

// Count returns the symbolic number of lattice points in the nest's
// iteration domain: the execution count of a statement at the innermost
// position of the chain.
func Count(n Nest) (expr.Expr, error) {
	entries := n.Entries
	// Collect loops in order and attach each guard to the deepest loop
	// variable it references.
	var loops []*Loop
	guardsFor := map[int][]*Guard{} // loop index -> guards
	var preGuards []*Guard          // guards referencing no loop vars
	var scales []rational.Rat

	for _, e := range entries {
		if e.Loop != nil {
			if err := checkConvex(e.Loop); err != nil {
				return nil, err
			}
			if e.Loop.Step <= 0 {
				return nil, fmt.Errorf("%w: loop %q has non-positive step %d",
					ErrUnsupported, e.Loop.Var, e.Loop.Step)
			}
			loops = append(loops, e.Loop)
			continue
		}
		g := e.Guard
		if g.Kind == Scale {
			scales = append(scales, g.Frac)
			continue
		}
		idx := -1
		for i, l := range loops {
			if expr.DependsOn(g.E, l.Var) {
				idx = i
			}
		}
		if idx >= 0 {
			guardsFor[idx] = append(guardsFor[idx], g)
		} else {
			preGuards = append(preGuards, g)
		}
	}

	// Guards that reference no loop variable must be decidable now.
	for _, g := range preGuards {
		v, err := foldGuard(g)
		if err != nil {
			return nil, err
		}
		if !v {
			return expr.Const(0), nil
		}
	}

	// Fold from the innermost loop outward.
	count := expr.Expr(expr.Const(1))
	for i := len(loops) - 1; i >= 0; i-- {
		var err error
		count, err = countLoopLevel(loops, i, guardsFor[i], count)
		if err != nil {
			return nil, err
		}
	}
	for _, s := range scales {
		count = expr.NewMul(expr.ConstRat(s), count)
	}
	return count, nil
}

// foldGuard decides a guard that references only parameters if it is
// constant; otherwise the static model cannot resolve it.
func foldGuard(g *Guard) (bool, error) {
	c, ok := expr.ConstVal(g.E)
	if !ok {
		return false, fmt.Errorf("%w: branch condition %s depends on free parameters; "+
			"annotate with br_frac or br_count", ErrUnsupported, g.E)
	}
	switch g.Kind {
	case AffineGE:
		return c.Sign() >= 0, nil
	case ModEq, ModNeq:
		cv, okInt := c.Int64()
		if !okInt {
			return false, fmt.Errorf("%w: non-integer mod operand %s", ErrUnsupported, c)
		}
		r := ((cv % g.Mod) + g.Mod) % g.Mod
		if g.Kind == ModEq {
			return r == g.Rem, nil
		}
		return r != g.Rem, nil
	}
	return false, fmt.Errorf("%w: guard kind %d", ErrUnsupported, g.Kind)
}

// countLoopLevel computes sum over loop i's range (with its guards) of the
// inner count.
func countLoopLevel(loops []*Loop, i int, guards []*Guard, inner expr.Expr) (expr.Expr, error) {
	l := loops[i]

	// Guards on strided loops must respect the stride's phase: tightening
	// v's bounds directly would admit lattice points between iteration
	// points. Rewrite v = lo + step*t and count over the unit-stride t.
	if l.Step > 1 && len(guards) > 0 {
		t := freshVar(l.Var)
		vExpr := expr.NewAdd(l.Lo, expr.NewMul(expr.Const(l.Step), expr.P(t)))
		tLoop := &Loop{
			Var:  t,
			Lo:   expr.Const(0),
			Hi:   expr.NewFloorDiv(expr.NewSub(l.Hi, l.Lo), rational.FromInt(l.Step)),
			Step: 1,
		}
		newGuards := make([]*Guard, 0, len(guards))
		for _, g := range guards {
			ng := *g
			ng.E = expr.Substitute(g.E, l.Var, vExpr)
			newGuards = append(newGuards, &ng)
		}
		newInner := expr.Substitute(inner, l.Var, vExpr)
		newLoops := append(append([]*Loop{}, loops[:i]...), tLoop)
		return countLoopLevel(newLoops, i, newGuards, newInner)
	}

	lo, hi := l.Lo, l.Hi
	var mods []*Guard

	// Tighten bounds with affine guards; set aside congruences.
	for _, g := range guards {
		switch g.Kind {
		case AffineGE:
			nlo, nhi, err := tightenBounds(g.E, l.Var, lo, hi)
			if err != nil {
				return nil, err
			}
			lo, hi = nlo, nhi
		case ModEq, ModNeq:
			if l.Step != 1 {
				return nil, fmt.Errorf("%w: congruence guard on strided loop %q",
					ErrUnsupported, l.Var)
			}
			mods = append(mods, g)
		default:
			return nil, fmt.Errorf("%w: guard kind %d at loop level", ErrUnsupported, g.Kind)
		}
	}

	bodyDependsOnVar := expr.DependsOn(inner, l.Var)

	if len(mods) > 0 {
		if bodyDependsOnVar {
			// Enumerate: holes plus a var-dependent body resist closed forms.
			return sumWithModsEnumerated(l, lo, hi, mods, inner)
		}
		trips, err := tripsWithMods(l, lo, hi, mods, loops[:i])
		if err != nil {
			return nil, err
		}
		return expr.NewMul(trips, inner), nil
	}

	if !bodyDependsOnVar {
		trips := tripCount(lo, hi, l.Step, loops[:i])
		return expr.NewMul(trips, inner), nil
	}

	// Body depends on the loop variable: build a summation.
	if l.Step == 1 {
		inner = resolveNonNegGuards(inner, loops[:i+1])
		return expr.NewSum(l.Var, lo, hi, inner), nil
	}
	// Strided with dependent body: substitute v = lo + step*t.
	t := freshVar(l.Var)
	v := expr.NewAdd(lo, expr.NewMul(expr.Const(l.Step), expr.V(t)))
	body := expr.Substitute(inner, l.Var, v)
	tHi := expr.NewFloorDiv(expr.NewSub(hi, lo), rational.FromInt(l.Step))
	return expr.NewSum(t, expr.Const(0), tHi, body), nil
}

func freshVar(base string) string { return "__" + base + "_t" }

// tripCount builds max(0, floor((hi-lo)/step)+1), attempting to discharge
// the max(0, ·) guard by proving the range non-empty over the outer box —
// that unblocks Faulhaber closed forms in enclosing summations.
func tripCount(lo, hi expr.Expr, step int64, outer []*Loop) expr.Expr {
	span := expr.NewSub(hi, lo)
	var raw expr.Expr
	if step == 1 {
		raw = expr.NewAdd(span, expr.Const(1))
	} else {
		raw = expr.NewAdd(expr.NewFloorDiv(span, rational.FromInt(step)), expr.Const(1))
	}
	if proveNonNeg(span, outer) {
		return raw
	}
	return expr.NewMax(expr.Const(0), raw)
}

// resolveNonNegGuards rewrites max(0, E) subtrees to E when E is provably
// nonnegative over the outer domain box.
func resolveNonNegGuards(e expr.Expr, outer []*Loop) expr.Expr {
	switch x := e.(type) {
	case expr.Max:
		if expr.IsZero(x.A) && proveNonNeg(x.B, outer) {
			return resolveNonNegGuards(x.B, outer)
		}
		if expr.IsZero(x.B) && proveNonNeg(x.A, outer) {
			return resolveNonNegGuards(x.A, outer)
		}
		return expr.NewMax(resolveNonNegGuards(x.A, outer), resolveNonNegGuards(x.B, outer))
	case expr.Add:
		terms := make([]expr.Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = resolveNonNegGuards(t, outer)
		}
		return expr.NewAdd(terms...)
	case expr.Mul:
		fs := make([]expr.Expr, len(x.Factors))
		for i, f := range x.Factors {
			fs[i] = resolveNonNegGuards(f, outer)
		}
		return expr.NewMul(fs...)
	}
	return e
}
