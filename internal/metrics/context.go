package metrics

import (
	"mira/internal/expr"
	"mira/internal/polyhedra"
	"mira/internal/rational"
)

// Context is a statement's execution-count context: a signed combination
// of polyhedral nests times a symbolic multiplier. Signed combinations
// express else-branches and != constraints exactly via the paper's
// complement rule (Count_true = Count_total − Count_false) while keeping
// every term inside the polyhedral framework, so nested loops below an
// else branch still count precisely.
//
// A context's count belongs to the context, not to the statements under
// it: every constructor gives the new context a fresh count cell, copies
// of a context share it, and Count fills it on first use. Counts are
// immutable expressions, so every site and call under one context can
// share one.
type Context struct {
	mult  expr.Expr // multiplier applied to the whole combination
	terms []ctxTerm
	count *countCell
}

// countCell caches a context's Count, the result and the error together.
type countCell struct {
	done bool
	val  expr.Expr
	err  error
}

type ctxTerm struct {
	sign int // +1 or -1
	nest polyhedra.Nest
}

// UnitContext is the top-of-function context (count 1).
func UnitContext() Context {
	return Context{mult: expr.Const(1), terms: []ctxTerm{{sign: 1}}, count: new(countCell)}
}

// WithLoop extends every term by a loop level.
func (c Context) WithLoop(l polyhedra.Loop) Context {
	out := Context{mult: c.mult, terms: make([]ctxTerm, 0, len(c.terms)), count: new(countCell)}
	for _, t := range c.terms {
		out.terms = append(out.terms, ctxTerm{sign: t.sign, nest: t.nest.WithLoop(l)})
	}
	return out
}

// WithGuards extends every term by guards (an if's then-branch).
func (c Context) WithGuards(gs []polyhedra.Guard) Context {
	out := Context{mult: c.mult, terms: make([]ctxTerm, 0, len(c.terms)), count: new(countCell)}
	for _, t := range c.terms {
		n := t.nest
		for _, g := range gs {
			n = n.WithGuard(g)
		}
		out.terms = append(out.terms, ctxTerm{sign: t.sign, nest: n})
	}
	return out
}

// Else returns the complement context of guards: ctx − (ctx ∧ guards).
func (c Context) Else(gs []polyhedra.Guard) Context {
	out := Context{mult: c.mult, terms: make([]ctxTerm, 0, 2*len(c.terms)), count: new(countCell)}
	out.terms = append(out.terms, c.terms...)
	for _, t := range c.terms {
		n := t.nest
		for _, g := range gs {
			n = n.WithGuard(g)
		}
		out.terms = append(out.terms, ctxTerm{sign: -t.sign, nest: n})
	}
	return out
}

// Scale multiplies the context by a rational fraction (br_frac).
func (c Context) Scale(f rational.Rat) Context {
	return c.WithGuards([]polyhedra.Guard{{Kind: polyhedra.Scale, Frac: f}})
}

// Override replaces the context count with an absolute expression
// (br_count annotations).
func Override(count expr.Expr) Context {
	return Context{mult: count, terms: []ctxTerm{{sign: 1}}, count: new(countCell)}
}

// Count returns the symbolic execution count, computed on the first call
// for this context or any copy of it.
func (c Context) Count() (expr.Expr, error) {
	if !c.count.done {
		c.count.val, c.count.err = c.countTerms()
		c.count.done = true
	}
	return c.count.val, c.count.err
}

func (c Context) countTerms() (expr.Expr, error) {
	var total expr.Expr = expr.Const(0)
	for _, t := range c.terms {
		n, err := polyhedra.Count(t.nest)
		if err != nil {
			return nil, err
		}
		if t.sign < 0 {
			n = expr.NewNeg(n)
		}
		total = expr.NewAdd(total, n)
	}
	return expr.NewMul(c.mult, total), nil
}

// Loops returns the loop levels of the primary (first, positive) term —
// the chain inner SCoP resolution sees.
func (c Context) Loops() []*polyhedra.Loop {
	if len(c.terms) == 0 {
		return nil
	}
	return c.terms[0].nest.Loops()
}
