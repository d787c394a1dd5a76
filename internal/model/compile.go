// Symbolic compilation: partial evaluation of a model's call tree into a
// closed form (paper Sec. IV-D1: "the model ... can be evaluated at low
// computational cost").
//
// The tree walker in model.go re-walks every function body, re-copies
// every callee environment, and re-evaluates every multiplicity on each
// query. That is fine for one point, and the engine memoizes repeated
// points — but a parameter sweep visits each point exactly once, so the
// memo never hits and a 10k-point grid costs 10k full tree walks.
// Compile does the walk once, symbolically:
//
//   - callee models are inlined through the same argument-binding rules
//     as bindEnv, with the whole binding environment substituted
//     simultaneously into the callee's expressions,
//   - constant multiplicities fold at compile time (a constant-trip call
//     chain collapses into pre-scaled counts),
//   - sites reached with an identical multiplicity chain merge into one
//     term, and
//   - the surviving symbolic multiplicities are interned so a chain
//     shared by many terms evaluates once per point, and
//   - each interned multiplicity built only from integral constants,
//     parameters, +, *, floor division by an integer, min and max is
//     lowered onto the model's int64 tape (tape.go): a flat program over
//     parameter slots, with common subexpressions computed once.
//
// The result evaluates with no recursion and no environment copying: a
// flat pass over terms, each term a handful of int64 multiplies against
// per-point values of the interned expressions. Per point, Eval and
// EvalOps bind the tape's slots from the point's expr.Env and the tape
// fills a value column eagerly with checked arithmetic; that cannot
// fail, since an unbound slot or an overflow only leaves a value
// unknown. Every multiplicity the tape does not hold at the point — a
// non-integral constant such as Faulhaber's 1/2, a rational divisor, a
// Sum or a Var, or a tape value that overflowed — stays on the rational
// path: expr.Eval of its tree against the point's environment, computed
// lazily in the walker's order. Both paths work in a scratch workspace
// from a per-model pool, so evaluating many points (a sweep) allocates
// no workspace per point.
//
// Fidelity contract: CompiledModel.Eval returns exactly the walker's
// metrics and EvalOps exactly its per-opcode counts, for inclusive and
// exclusive compilations alike, including the walker's per-level
// round-to-nearest of each multiplicity, the skip of a subtree
// whose call multiplicity rounds to zero, ErrOverflow on counts that
// leave int64, and bindEnv's runtime fallback from an uncomputable
// derived argument to its mangled environment binding. A value the tape
// holds is the exact rational value (integral, so its own rounding),
// and an expression it holds cannot fail on the rational path either,
// so the tape changes no outcome. A point the flat pass cannot evaluate
// is re-run through the walker, so the two paths succeed together with
// equal values or fail together with the same error.
package model

import (
	"fmt"
	"sort"
	"sync"

	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/rational"
)

// chainElem is one link of a term's multiplicity chain: an index into
// the compiled model's interned expressions. A probe element reproduces
// the walker's eager argument evaluation in bindEnv — it is evaluated
// for its error (an unbound parameter must fail the query exactly where
// the tree walk fails it) but its value never enters the product.
type chainElem struct {
	idx   int
	probe bool
}

// term is one merged group of sites sharing a multiplicity chain. Counts
// are pre-scaled by every constant multiplicity folded at compile time;
// the chain holds only the symbolic remainder, outermost first, each
// element rounded independently per point exactly as the walker rounds
// each level of the call tree. cats is the sparse form of counts
// (nonzero categories only), derived once at the end of compilation —
// the per-point hot loop iterates it instead of the dense vector.
type term struct {
	chain []chainElem
	// multAt is the tape value holding the chain's product, or -1.
	multAt int32
	counts [ir.NumCategories]int64
	cats   []catCount
	flops  int64
	instrs int64
	ops    []ir.OpN // sorted by opcode; never mutated, so terms may share it
}

// catCount is one nonzero (category, count) entry of a term.
type catCount struct {
	cat int
	n   int64
}

// CompiledModel is one function's call tree partially evaluated to
// closed form. Build with Model.Compile / Model.CompileExclusive; safe
// for concurrent use (immutable after compilation).
type CompiledModel struct {
	fn        string
	exclusive bool
	params    []string
	exprs     []expr.Expr
	tape      tape
	terms     []term
	// model backs the failure path: a point the flat pass cannot
	// evaluate is re-run through the tree walker, which owns the full
	// runtime semantics of failure — bindEnv's fallback from an
	// uncomputable derived argument to its mangled environment binding
	// (the paper's y_16 convention), and the canonical error wording.
	model *Model
	// pool holds idle workspaces for Eval and EvalOps.
	pool sync.Pool
}

// Fn returns the compiled function's name.
func (cm *CompiledModel) Fn() string { return cm.fn }

// Exclusive reports whether the compilation was body-only.
func (cm *CompiledModel) Exclusive() bool { return cm.exclusive }

// Params returns the free parameters the compiled form evaluates over,
// sorted — the axes a sweep must bind.
func (cm *CompiledModel) Params() []string {
	out := make([]string, len(cm.params))
	copy(out, cm.params)
	return out
}

// NumTerms reports the merged term count (compilation quality metric).
func (cm *CompiledModel) NumTerms() int { return len(cm.terms) }

// NumExprs reports the count of distinct interned multiplicity
// expressions — the per-point symbolic evaluation cost.
func (cm *CompiledModel) NumExprs() int { return len(cm.exprs) }

// Compile partially evaluates fn's inclusive call tree to closed form.
func (m *Model) Compile(fn string) (*CompiledModel, error) {
	return m.compile(fn, false)
}

// CompileExclusive compiles fn's body-only (callee-free) metrics.
func (m *Model) CompileExclusive(fn string) (*CompiledModel, error) {
	return m.compile(fn, true)
}

func (m *Model) compile(fn string, exclusive bool) (*CompiledModel, error) {
	if _, ok := m.Funcs[fn]; !ok {
		return nil, fmt.Errorf("model: no function %q", fn)
	}
	c := &compiler{
		m:       m,
		cm:      &CompiledModel{fn: fn, exclusive: exclusive, model: m},
		exprIdx: map[string]int{},
		termIdx: map[string]int{},
	}
	if err := c.inline(fn, nil, nil, 1, exclusive, 0); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, e := range c.cm.exprs {
		for _, p := range expr.Params(e) {
			set[p] = true
		}
	}
	c.cm.params = make([]string, 0, len(set))
	for p := range set {
		c.cm.params = append(c.cm.params, p)
	}
	sort.Strings(c.cm.params)
	c.cm.tape = lowerTape(c.cm.exprs, c.cm.terms)
	for i := range c.cm.terms {
		t := &c.cm.terms[i]
		for cat, n := range t.counts {
			if n != 0 {
				t.cats = append(t.cats, catCount{cat: cat, n: n})
			}
		}
	}
	return c.cm, nil
}

type compiler struct {
	m       *Model
	cm      *CompiledModel
	exprIdx map[string]int // canonical expr string -> index into cm.exprs
	termIdx map[string]int // chain signature -> index into cm.terms
}

// intern deduplicates a multiplicity expression by its canonical string.
func (c *compiler) intern(e expr.Expr) int {
	key := e.String()
	if i, ok := c.exprIdx[key]; ok {
		return i
	}
	i := len(c.cm.exprs)
	c.cm.exprs = append(c.cm.exprs, e)
	c.exprIdx[key] = i
	return i
}

// appendElem extends a chain without aliasing the parent's backing array
// (sibling sites and calls share the inherited prefix).
func appendElem(chain []chainElem, idx int, probe bool) []chainElem {
	out := make([]chainElem, len(chain)+1)
	copy(out, chain)
	out[len(chain)] = chainElem{idx: idx, probe: probe}
	return out
}

// foldMult handles one substituted multiplicity: a constant rounds and
// folds into the running constant factor (a zero prunes the whole
// subtree, matching the walker's skip), anything symbolic — including a
// constant whose rounding overflows, which must only fail queries that
// actually reach it — extends the chain. The returned prune flag means
// the multiplicity is constant zero.
func (c *compiler) foldMult(me expr.Expr, chain []chainElem, constMult int64) (_ []chainElem, _ int64, prune bool) {
	if v, ok := expr.ConstVal(me); ok {
		if mi, err := roundMult(v); err == nil {
			if mi == 0 {
				return chain, constMult, true
			}
			if p, ok := mulChecked(constMult, mi); ok {
				return chain, p, false
			}
		}
	}
	return appendElem(chain, c.intern(me), false), constMult, false
}

// inline descends fn's model under a symbolic environment (parameter ->
// expression over the root function's parameter space), emitting one
// term per reached site. chain and constMult carry the multiplicities
// accumulated from the root down to this function.
func (c *compiler) inline(name string, sym map[string]expr.Expr, chain []chainElem, constMult int64, exclusive bool, depth int) error {
	if depth > maxCallDepth {
		return fmt.Errorf("model: call depth exceeds %d at %q", maxCallDepth, name)
	}
	f, ok := c.m.Funcs[name]
	if !ok {
		return fmt.Errorf("model: no function %q", name)
	}
	if f.Extern {
		return nil // invisible to static analysis (paper Sec. IV-D1)
	}
	for _, s := range f.Sites {
		tChain, tConst, prune := c.foldMult(expr.SubstituteAll(s.Mult, sym), chain, constMult)
		if prune {
			continue
		}
		if err := c.emit(tChain, tConst, s); err != nil {
			return fmt.Errorf("model: %s line %d: %w", name, s.Line, err)
		}
	}
	if exclusive {
		return nil
	}
	for _, call := range f.Calls {
		cChain, cConst, prune := c.foldMult(expr.SubstituteAll(call.Mult, sym), chain, constMult)
		if prune {
			continue // the walker skips a zero-multiplicity call entirely
		}
		childSym := make(map[string]expr.Expr, len(sym)+len(call.Args))
		for k, v := range sym {
			childSym[k] = v
		}
		for _, param := range argOrder(call) {
			argE := call.Args[param]
			if argE == nil {
				// Statically underived argument: defer to the runtime
				// environment under the paper's mangled-name convention,
				// exactly like bindEnv's fallback lookup.
				childSym[param] = expr.P(MangledParam(param, call.Line))
				continue
			}
			se := expr.SubstituteAll(argE, sym)
			if _, isConst := expr.ConstVal(se); !isConst {
				// bindEnv evaluates every derived argument eagerly, even
				// ones the callee never reads; probe it so an argument
				// the walker cannot resolve fails the flat pass too
				// (which then defers to the walker — see Eval — for
				// bindEnv's mangled-name fallback and error wording).
				cChain = appendElem(cChain, c.intern(se), true)
			}
			childSym[param] = se
		}
		before := len(c.cm.terms)
		if err := c.inline(call.Callee, childSym, cChain, cConst, false, depth+1); err != nil {
			return err
		}
		if len(c.cm.terms) == before && len(cChain) > len(chain) {
			// The callee contributed nothing countable (extern, empty, or
			// fully merged) but the walker still evaluates this call's
			// multiplicity and arguments: keep a zero-count guard term so
			// their runtime errors surface identically.
			if err := c.emit(cChain, 1, nil); err != nil {
				return fmt.Errorf("model: %s call to %s at line %d: %w", name, call.Callee, call.Line, err)
			}
		}
	}
	return nil
}

// chainKey builds the merge signature of a chain. Interned indices are
// canonical, so the index sequence (with probe markers) is the identity.
func chainKey(chain []chainElem) string {
	b := make([]byte, 0, len(chain)*4)
	for _, el := range chain {
		if el.probe {
			b = append(b, 'p')
		} else {
			b = append(b, 'm')
		}
		for v := el.idx; ; v >>= 7 {
			b = append(b, byte(v&0x7f))
			if v < 1<<7 {
				break
			}
		}
		b = append(b, '.')
	}
	return string(b)
}

// emit records one site (or, with s == nil, an error-parity guard)
// reached with the given chain, scaling its counts by the folded
// constant multiplicity and merging it into an existing term with the
// same chain when possible. A compile-time overflow in the scale falls
// back to carrying the constant as a chain element, so it only fails
// evaluations that actually reach the term — a parent multiplicity can
// still zero it out at runtime, exactly as in the tree walk.
func (c *compiler) emit(chain []chainElem, constMult int64, s *Site) error {
	var t term
	t.chain = chain
	if s != nil {
		scaled, ok := scaleSite(s, constMult)
		if !ok {
			t.chain = appendElem(chain, c.intern(expr.Num{Val: rational.FromInt(constMult)}), false)
			scaled, _ = scaleSite(s, 1)
		}
		t = term{chain: t.chain, counts: scaled.counts, flops: scaled.flops, instrs: scaled.instrs, ops: scaled.ops}
	}
	key := chainKey(t.chain)
	if i, ok := c.termIdx[key]; ok {
		if mergeTerm(&c.cm.terms[i], &t) {
			return nil
		}
		// Merged counts would overflow int64 at compile time; keep the
		// term separate so the (equally inevitable) runtime overflow is
		// reported by the checked accumulation instead.
	}
	c.cm.terms = append(c.cm.terms, t)
	if _, ok := c.termIdx[key]; !ok {
		c.termIdx[key] = len(c.cm.terms) - 1
	}
	return nil
}

type scaledSite struct {
	counts [ir.NumCategories]int64
	flops  int64
	instrs int64
	ops    []ir.OpN
}

// scaleSite multiplies a site's counts by a constant multiplicity,
// reporting overflow instead of wrapping.
func scaleSite(s *Site, mult int64) (scaledSite, bool) {
	var out scaledSite
	for cat, n := range s.Counts {
		p, ok := mulChecked(n, mult)
		if !ok {
			return out, false
		}
		out.counts[cat] = p
	}
	var ok bool
	if out.flops, ok = mulChecked(s.Flops, mult); !ok {
		return out, false
	}
	if out.instrs, ok = mulChecked(s.Instrs, mult); !ok {
		return out, false
	}
	switch {
	case mult == 1:
		out.ops = s.Ops
	case len(s.Ops) > 0:
		out.ops = make([]ir.OpN, len(s.Ops))
		for i, c := range s.Ops {
			p, ok := mulChecked(c.N, mult)
			if !ok {
				return out, false
			}
			out.ops[i] = ir.OpN{Op: c.Op, N: p}
		}
	}
	return out, true
}

// mergeTerm folds src into dst (same chain); false on overflow.
func mergeTerm(dst, src *term) bool {
	merged := *dst
	var ok bool
	for cat := range merged.counts {
		if merged.counts[cat], ok = addChecked(merged.counts[cat], src.counts[cat]); !ok {
			return false
		}
	}
	if merged.flops, ok = addChecked(merged.flops, src.flops); !ok {
		return false
	}
	if merged.instrs, ok = addChecked(merged.instrs, src.instrs); !ok {
		return false
	}
	ops := merged.ops
	if len(src.ops) > 0 {
		if ops, ok = mergeOps(merged.ops, src.ops); !ok {
			return false
		}
	}
	merged.ops = ops
	*dst = merged
	return true
}

// mergeOps returns the sum of two sorted per-opcode count lists as a new
// sorted list; false on overflow.
func mergeOps(a, b []ir.OpN) ([]ir.OpN, bool) {
	out := make([]ir.OpN, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i].Op < b[j].Op:
			out = append(out, a[i])
			i++
		case i == len(a) || b[j].Op < a[i].Op:
			out = append(out, b[j])
			j++
		default:
			n, ok := addChecked(a[i].N, b[j].N)
			if !ok {
				return nil, false
			}
			out = append(out, ir.OpN{Op: a[i].Op, N: n})
			i++
			j++
		}
	}
	return out, true
}

// argOrder lists a call's bound parameters in the callee's declared
// order (the deterministic order bindEnv's map iteration lacks), with
// any stragglers outside ArgOrder appended sorted.
func argOrder(call *Call) []string {
	out := make([]string, 0, len(call.Args))
	seen := make(map[string]bool, len(call.Args))
	for _, p := range call.ArgOrder {
		if _, ok := call.Args[p]; ok && !seen[p] {
			out = append(out, p)
			seen[p] = true
		}
	}
	var rest []string
	for p := range call.Args {
		if !seen[p] {
			rest = append(rest, p)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// ---------------------------------------------------------------------------
// Evaluation

// scratch is the workspace of one point's evaluation: the point's
// environment, the tape's value column, and the rational values of the
// interned expressions the tape declines, computed lazily. Lazy matters
// for parity: an expression guarded by an outer zero multiplicity must
// not be evaluated at all, because the tree walk never reaches it.
// Workspaces are pooled per compiled model, so evaluating many points
// (a sweep worker) reuses them instead of allocating one per point.
type scratch struct {
	cm    *CompiledModel
	env   expr.Env
	vals  []int64 // the tape's value column
	known []bool
	cells []scratchCell
	// gen numbers the points evaluated in this workspace; a cell whose
	// gen differs holds nothing for the current point, so starting a
	// point clears no cells.
	gen uint32
}

type scratchCell struct {
	raw     rational.Rat
	rounded int64
	gen     uint32
	flags   uint8
}

const (
	rawDone     = 1 << 0
	roundedDone = 1 << 1
)

// scratchFor takes a pooled workspace and starts a point at env: every
// slot env binds to an integer is bound, the rest stay unbound, which
// declines only the tape values that read them.
func (cm *CompiledModel) scratchFor(env expr.Env) *scratch {
	sc, _ := cm.pool.Get().(*scratch)
	if sc == nil {
		w := cm.tape.width()
		sc = &scratch{cm: cm, vals: make([]int64, w), known: make([]bool, w), cells: make([]scratchCell, len(cm.exprs))}
		for j, c := range cm.tape.consts {
			at := len(cm.tape.slots) + j
			sc.vals[at], sc.known[at] = c, true
		}
	}
	sc.env = env
	if sc.gen++; sc.gen == 0 {
		clear(sc.cells)
		sc.gen = 1
	}
	for i, name := range cm.tape.slots {
		v, ok := env[name]
		if ok {
			sc.vals[i], ok = v.Int64()
		}
		sc.known[i] = ok
	}
	cm.tape.run(sc.vals, sc.known)
	return sc
}

func (cm *CompiledModel) release(sc *scratch) {
	sc.env = nil
	cm.pool.Put(sc)
}

// tapeValue returns interned expression idx's value from the tape's
// column, if the tape holds it at this point. A value the tape holds is
// integral, so it is also its own rounded multiplicity.
func (sc *scratch) tapeValue(idx int) (int64, bool) {
	if at := sc.cm.tape.exprAt[idx]; at >= 0 && sc.known[at] {
		return sc.vals[at], true
	}
	return 0, false
}

// cell returns interned expression idx's cell for the current point.
func (sc *scratch) cell(idx int) *scratchCell {
	c := &sc.cells[idx]
	if c.gen != sc.gen {
		c.gen, c.flags = sc.gen, 0
	}
	return c
}

func (sc *scratch) value(idx int) (rational.Rat, error) {
	cell := sc.cell(idx)
	if cell.flags&rawDone == 0 {
		v, err := expr.Eval(sc.cm.exprs[idx], sc.env)
		if err != nil {
			return rational.Rat{}, err
		}
		cell.raw = v
		cell.flags |= rawDone
	}
	return cell.raw, nil
}

func (sc *scratch) roundedValue(idx int) (int64, error) {
	cell := sc.cell(idx)
	if cell.flags&roundedDone == 0 {
		v, err := sc.value(idx)
		if err != nil {
			return 0, err
		}
		mi, err := roundMult(v)
		if err != nil {
			return 0, err
		}
		cell.rounded = mi
		cell.flags |= roundedDone
	}
	return cell.rounded, nil
}

// chainMult evaluates a term's multiplicity chain left to right —
// outermost first, exactly the order the tree walk encounters them — and
// returns the product of the rounded values. A zero short-circuits
// before any later element is touched (the walker skips the subtree),
// and probes are evaluated for effect only. An element the tape holds
// cannot fail; any other is evaluated on the rational path.
func (sc *scratch) chainMult(chain []chainElem) (int64, error) {
	mult := int64(1)
	for _, el := range chain {
		mi, ok := sc.tapeValue(el.idx)
		switch {
		case ok && el.probe:
			continue
		case el.probe:
			if _, err := sc.value(el.idx); err != nil {
				return 0, err
			}
			continue
		case !ok:
			var err error
			if mi, err = sc.roundedValue(el.idx); err != nil {
				return 0, err
			}
		}
		if mi == 0 {
			return 0, nil
		}
		p, ok := mulChecked(mult, mi)
		if !ok {
			return 0, ErrOverflow
		}
		mult = p
	}
	return mult, nil
}

// mult returns a term's multiplicity at this point: the tape's value of
// its chain product where the tape holds it, else chainMult's.
func (sc *scratch) mult(t *term) (int64, error) {
	if at := t.multAt; at >= 0 && sc.known[at] {
		return sc.vals[at], nil
	}
	return sc.chainMult(t.chain)
}

// Eval computes the compiled function's metrics under env: a flat pass
// over the merged terms, with no recursion and no environment copying.
// Results are byte-identical to the tree-walk Evaluate (or
// EvaluateExclusive for an exclusive compilation): a point the flat
// pass cannot evaluate — an unbound parameter, an overflow, a derived
// argument needing bindEnv's mangled-name fallback — is re-run through
// the walker, whose outcome (a fallback-resolved success or the
// canonical error) is definitive. The slow path costs one tree walk,
// exactly the pre-compilation price, and only for failing points.
func (cm *CompiledModel) Eval(env expr.Env) (Metrics, error) {
	sc := cm.scratchFor(env)
	defer cm.release(sc)
	var out Metrics
	for i := range cm.terms {
		t := &cm.terms[i]
		mult, err := sc.mult(t)
		if err != nil {
			return cm.model.metrics(cm.fn, env, cm.exclusive)
		}
		if mult == 0 {
			continue
		}
		// Inline sparse accumulation: only the term's nonzero categories,
		// no snapshot (a failed point is re-answered by the walker, so
		// partial mutation of out is discarded anyway).
		ok := true
		for _, cc := range t.cats {
			if ok = accumInto(&out.ByCategory[cc.cat], cc.n, mult); !ok {
				break
			}
		}
		if !ok || !accumInto(&out.Flops, t.flops, mult) || !accumInto(&out.Instrs, t.instrs, mult) {
			return cm.model.metrics(cm.fn, env, cm.exclusive)
		}
	}
	return out, nil
}

// EvalOps computes the compiled per-opcode counts under env, identical
// to the walker's per-opcode view of the same compilation (inclusive or
// exclusive), with the same walker failure path as Eval. The returned
// map is fresh.
func (cm *CompiledModel) EvalOps(env expr.Env) (map[ir.Op]int64, error) {
	sc := cm.scratchFor(env)
	defer cm.release(sc)
	out := map[ir.Op]int64{}
	for i := range cm.terms {
		t := &cm.terms[i]
		if len(t.ops) == 0 && len(t.chain) == 0 {
			continue
		}
		mult, err := sc.mult(t)
		if err != nil {
			return cm.model.opcodes(cm.fn, env, cm.exclusive)
		}
		if mult == 0 {
			continue
		}
		for _, c := range t.ops {
			if err := accumOp(out, c.Op, c.N, mult); err != nil {
				return cm.model.opcodes(cm.fn, env, cm.exclusive)
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Closed forms

// MetricExpr identifies a closed-form series of the compiled model.
type MetricExpr int

// The closed-form series.
const (
	ExprInstrs MetricExpr = iota
	ExprFlops
	ExprFPI
)

// CategoryExpr returns the symbolic closed form of one instruction
// category: the sum over terms of count × multiplicity chain, collapsed
// through the expression simplifier into a single polynomial-ish
// expression over Params. For integer-valued multiplicities (everything
// except br_frac fractions) evaluating it equals Eval's category count;
// fractional multiplicities make it the un-rounded idealization — use
// Eval for numbers, this for reading the model's shape.
func (cm *CompiledModel) CategoryExpr(cat ir.Category) expr.Expr {
	return cm.closedForm(func(t *term) int64 { return t.counts[cat] })
}

// Expr returns the named closed-form series (see CategoryExpr for the
// rounding caveat).
func (cm *CompiledModel) Expr(which MetricExpr) expr.Expr {
	switch which {
	case ExprFlops:
		return cm.closedForm(func(t *term) int64 { return t.flops })
	case ExprFPI:
		return cm.CategoryExpr(ir.CatSSEArith)
	default:
		return cm.closedForm(func(t *term) int64 { return t.instrs })
	}
}

func (cm *CompiledModel) closedForm(pick func(*term) int64) expr.Expr {
	var terms []expr.Expr
	for i := range cm.terms {
		t := &cm.terms[i]
		n := pick(t)
		if n == 0 {
			continue
		}
		factors := []expr.Expr{expr.Const(n)}
		for _, el := range t.chain {
			if !el.probe {
				factors = append(factors, cm.exprs[el.idx])
			}
		}
		terms = append(terms, expr.NewMul(factors...))
	}
	return expr.NewAdd(terms...)
}
