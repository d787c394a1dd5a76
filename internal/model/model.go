// Package model defines Mira's generated performance model: per-function
// metric programs over symbolic multiplicities (paper Sec. III-C, Fig. 5).
//
// A Func mirrors one source function. Each Site pairs the instruction
// counts of one source position (from the bridge) with a symbolic
// execution-count expression (from the polyhedral model). Each Call records
// a callee invocation with its multiplicity and argument bindings; calls
// combine caller and callee metrics exactly like the paper's
// handle_function_call helper.
//
// The model is dual-form: it evaluates directly in Go (used by the
// validation harness and benches), and it emits Python source matching the
// paper's artifact style (see python.go).
package model

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"mira/internal/ast"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/rational"
)

// ErrOverflow is the typed error every evaluation path (the tree walker
// and the compiled path) returns when an instruction count or multiplicity
// no longer fits in int64. At sweep-scale sizes (dgemm n^3 flops) raw
// accumulation silently wraps negative and poisons every cache built on
// top; check with errors.Is.
var ErrOverflow = errors.New("count overflows int64")

// addChecked returns a+b, reporting overflow instead of wrapping.
func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulChecked returns a*b, reporting overflow instead of wrapping. The
// 128-bit unsigned product becomes the signed one by subtracting each
// negative operand's partner from the high word; the product fits
// int64 exactly when that high word is the sign extension of the low.
func mulChecked(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	shi := int64(hi)
	if a < 0 {
		shi -= b
	}
	if b < 0 {
		shi -= a
	}
	p := int64(lo)
	if shi != p>>63 {
		return 0, false
	}
	return p, true
}

// Metrics is an evaluated instruction-count vector.
type Metrics struct {
	ByCategory [ir.NumCategories]int64
	Flops      int64
	Instrs     int64
}

// FPI returns the floating-point instruction count (PAPI_FP_INS analogue:
// the SSE2 packed/scalar arithmetic category).
func (m Metrics) FPI() int64 { return m.ByCategory[ir.CatSSEArith] }

// Add accumulates other scaled by mult, returning ErrOverflow instead of
// wrapping when any component leaves int64 range.
func (m *Metrics) Add(other Metrics, mult int64) error {
	saved := *m
	for c := range m.ByCategory {
		if !accumInto(&m.ByCategory[c], other.ByCategory[c], mult) {
			*m = saved
			return ErrOverflow
		}
	}
	if !accumInto(&m.Flops, other.Flops, mult) || !accumInto(&m.Instrs, other.Instrs, mult) {
		*m = saved
		return ErrOverflow
	}
	return nil
}

// accumInto adds n*mult into *dst, reporting overflow instead of
// wrapping. The one accumulation primitive shared by the tree walker
// and the compiled path — their overflow policies must never diverge.
func accumInto(dst *int64, n, mult int64) bool {
	p, ok := mulChecked(n, mult)
	if !ok {
		return false
	}
	s, ok := addChecked(*dst, p)
	if !ok {
		return false
	}
	*dst = s
	return true
}

// Site is the cost of one source position. Its human-readable label is
// Desc, a role such as "loop cond " or "declare i" (empty for a plain
// expression statement), followed by the source text of Expr when Expr
// is non-nil. Label renders the two; only the Python emitter reads it,
// so a model that is never emitted never renders source text.
type Site struct {
	Line, Col int
	Desc      string
	Expr      ast.Expr
	Counts    [ir.NumCategories]int64
	Ops       []ir.OpN // per-opcode counts sorted by opcode, for fine categorization
	Flops     int64
	Instrs    int64
	Mult      expr.Expr
}

// Label returns the site's human-readable label: Desc followed by the
// source text of Expr.
func (s *Site) Label() string {
	if s.Expr == nil {
		return s.Desc
	}
	return s.Desc + ast.ExprString(s.Expr)
}

// Call is one call site.
type Call struct {
	Callee    string
	Line, Col int
	Mult      expr.Expr
	// Args binds callee parameter names to caller-side expressions. A nil
	// entry means the argument could not be derived statically; its value
	// is looked up in the environment under MangledParam(name, line) — the
	// paper's "y_16" convention.
	Args map[string]expr.Expr
	// ArgOrder preserves the callee's declared parameter order.
	ArgOrder []string
}

// MangledParam names an unresolved call argument after the paper's
// convention: parameter name + call line.
func MangledParam(param string, line int) string {
	return fmt.Sprintf("%s_%d", param, line)
}

// Func is the model of one source function.
type Func struct {
	Name   string
	Params []string // declared numeric parameters, in order
	Extern bool     // library function: no visible body (counts are zero)
	Sites  []*Site
	Calls  []*Call
	// AnnotParams lists annotation-introduced parameters.
	AnnotParams []string
}

// Model is the whole-program model.
type Model struct {
	SourceName string
	Order      []string
	Funcs      map[string]*Func
}

// Lookup returns a function model.
func (m *Model) Lookup(name string) (*Func, bool) {
	f, ok := m.Funcs[name]
	return f, ok
}

// FreeParams returns every parameter name the function's expressions
// reference, sorted — the values callers (or users) must supply.
func (f *Func) FreeParams() []string {
	set := map[string]bool{}
	for _, s := range f.Sites {
		for _, p := range expr.Params(s.Mult) {
			set[p] = true
		}
	}
	for _, c := range f.Calls {
		for _, p := range expr.Params(c.Mult) {
			set[p] = true
		}
		for _, a := range c.Args {
			if a != nil {
				for _, p := range expr.Params(a) {
					set[p] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// roundMult converts an evaluated multiplicity to an integer count.
// Fractional multiplicities arise from br_frac annotations; every
// evaluation path must round identically — to nearest, ties up — or the
// per-opcode view (Table II, the fine categories) silently drifts from
// Evaluate.
// A multiplicity whose rounded value leaves int64 range is ErrOverflow
// (it used to silently become whatever big.Int.Int64 truncates to).
var oneHalf = rational.FromFrac(1, 2)

func roundMult(mult rational.Rat) (int64, error) {
	if mi, ok := mult.Int64(); ok {
		return mi, nil
	}
	mi, ok := mult.Add(oneHalf).Floor().Int64()
	if !ok {
		return 0, fmt.Errorf("multiplicity %s: %w", mult, ErrOverflow)
	}
	return mi, nil
}

// bindEnv builds the callee environment for one call from the caller's:
// inherit everything, then override with statically derived argument
// bindings. Arguments the analysis could not derive (nil expressions) and
// arguments whose expressions are not computable in this environment fall
// back to the mangled-name convention (paper's "y_16"); when the mangled
// name is also unbound, a nil argument deletes the parameter so the callee
// reports it unbound, while an uncomputable expression is a hard error.
// unresolved lists the mangled names the environment did not supply, for
// diagnostics on callee failure. The walker builds every callee
// environment through this one helper, for the metric and the per-opcode
// view alike, and the compiler inlines by the same rules — a caller-scope
// binding leaking through for one view but not the other would evaluate
// the same program in two different environments.
func (c *Call) bindEnv(env expr.Env) (childEnv expr.Env, unresolved []string, err error) {
	childEnv = make(expr.Env, len(env)+len(c.Args))
	for k, v := range env {
		childEnv[k] = v
	}
	for param, argE := range c.Args {
		if argE == nil {
			mangled := MangledParam(param, c.Line)
			if v, ok := env[mangled]; ok {
				childEnv[param] = v
			} else {
				delete(childEnv, param)
				unresolved = append(unresolved, mangled)
			}
			continue
		}
		v, evalErr := expr.Eval(argE, env)
		if evalErr != nil {
			// Not computable in this environment; fall back to the
			// mangled-name convention.
			mangled := MangledParam(param, c.Line)
			if mv, ok := env[mangled]; ok {
				childEnv[param] = mv
				continue
			}
			return nil, nil, fmt.Errorf("argument %q of %s at line %d: %w (bind %q to supply it)",
				param, c.Callee, c.Line, evalErr, mangled)
		}
		childEnv[param] = v
	}
	// c.Args is a map: sort the hint so the same failing query produces
	// the same diagnostic bytes on every call (identical queries must be
	// byte-identical — they are cached and compared).
	sort.Strings(unresolved)
	return childEnv, unresolved, nil
}

// maxCallDepth bounds call recursion in the walker and the compiler
// alike (defensive; sema rejects recursion).
const maxCallDepth = 64

// Evaluate computes the inclusive metrics of function name under the given
// parameter environment. Callee environments inherit the caller's and are
// overridden by statically derived argument bindings; unresolved arguments
// are looked up under their mangled names.
func (m *Model) Evaluate(name string, env expr.Env) (Metrics, error) {
	return m.metrics(name, env, false)
}

// EvaluateExclusive computes body-only metrics.
func (m *Model) EvaluateExclusive(name string, env expr.Env) (Metrics, error) {
	return m.metrics(name, env, true)
}

// EvaluateOpcodes computes inclusive per-opcode counts of function name
// under env — the granularity the architecture description file's 64
// categories (and Table II / Fig. 6) consume.
func (m *Model) EvaluateOpcodes(name string, env expr.Env) (map[ir.Op]int64, error) {
	return m.opcodes(name, env, false)
}

func (m *Model) metrics(name string, env expr.Env, exclusive bool) (Metrics, error) {
	var out Metrics
	err := walk(m, name, env, exclusive, 0, &out)
	return out, err
}

func (m *Model) opcodes(name string, env expr.Env, exclusive bool) (map[ir.Op]int64, error) {
	out := opCounts{}
	err := walk(m, name, env, exclusive, 0, out)
	return out, err
}

// accumulator is what a walk sums into: *Metrics for the metric view,
// opCounts for the per-opcode view. The walker rounds multiplicities and
// binds call arguments once for both views; an accumulator only adds,
// through the checked accumulation (Metrics.Add, accumOp).
type accumulator[A any] interface {
	// addSite adds one site's counts times its rounded multiplicity.
	addSite(s *Site, mult int64) error
	// addCallee adds a callee's completed walk times the call's
	// rounded multiplicity.
	addCallee(sub A, mult int64) error
	// fresh returns an empty accumulator for a callee's walk.
	fresh() A
}

func (m *Metrics) addSite(s *Site, mult int64) error {
	return m.Add(Metrics{ByCategory: s.Counts, Flops: s.Flops, Instrs: s.Instrs}, mult)
}

func (m *Metrics) addCallee(sub *Metrics, mult int64) error { return m.Add(*sub, mult) }

func (m *Metrics) fresh() *Metrics { return new(Metrics) }

// opCounts is the per-opcode accumulator.
type opCounts map[ir.Op]int64

func (acc opCounts) addSite(s *Site, mult int64) error {
	for _, c := range s.Ops {
		if err := accumOp(acc, c.Op, c.N, mult); err != nil {
			return err
		}
	}
	return nil
}

func (acc opCounts) addCallee(sub opCounts, mult int64) error {
	for op, n := range sub {
		if err := accumOp(acc, op, n, mult); err != nil {
			return err
		}
	}
	return nil
}

func (opCounts) fresh() opCounts { return opCounts{} }

// walk is the model's one recursive evaluator: it adds function name's
// sites, and unless exclusive its callees' walks, under env into acc.
// Each site and call multiplicity rounds through roundMult at its own
// level, a call whose multiplicity rounds to zero is skipped without
// binding its arguments, and callee environments come from bindEnv.
func walk[A accumulator[A]](m *Model, name string, env expr.Env, exclusive bool, depth int, acc A) error {
	if depth > maxCallDepth {
		return fmt.Errorf("model: call depth exceeds %d at %q", maxCallDepth, name)
	}
	f, ok := m.Funcs[name]
	if !ok {
		return fmt.Errorf("model: no function %q", name)
	}
	if f.Extern {
		return nil // invisible to static analysis (paper Sec. IV-D1)
	}
	for _, s := range f.Sites {
		mult, err := expr.Eval(s.Mult, env)
		if err != nil {
			return fmt.Errorf("model: %s line %d: %w", name, s.Line, err)
		}
		mi, err := roundMult(mult)
		if err != nil {
			return fmt.Errorf("model: %s line %d: %w", name, s.Line, err)
		}
		if err := acc.addSite(s, mi); err != nil {
			return fmt.Errorf("model: %s line %d: %w", name, s.Line, err)
		}
	}
	if exclusive {
		return nil
	}
	for _, call := range f.Calls {
		mult, err := expr.Eval(call.Mult, env)
		if err != nil {
			return fmt.Errorf("model: %s call to %s at line %d: %w", name, call.Callee, call.Line, err)
		}
		mi, err := roundMult(mult)
		if err != nil {
			return fmt.Errorf("model: %s call to %s at line %d: %w", name, call.Callee, call.Line, err)
		}
		if mi == 0 {
			continue
		}
		childEnv, unresolved, err := call.bindEnv(env)
		if err != nil {
			return fmt.Errorf("model: %s: %w", name, err)
		}
		sub := acc.fresh()
		if err := walk(m, call.Callee, childEnv, false, depth+1, sub); err != nil {
			if len(unresolved) > 0 {
				return fmt.Errorf("%w (call at line %d has statically unresolved arguments; "+
					"bind them in the environment as %v — the paper's y_16 convention)",
					err, call.Line, unresolved)
			}
			return err
		}
		if err := acc.addCallee(sub, mi); err != nil {
			return fmt.Errorf("model: %s call to %s at line %d: %w", name, call.Callee, call.Line, err)
		}
	}
	return nil
}

// accumOp adds n*mult into acc[op] with overflow checks. A zero
// contribution is a no-op: it must not materialize a zero-valued key,
// which would leak "category: 0" rows into the bucketed views and make
// the map's key set depend on which multiplicities happened to round to
// zero.
func accumOp(acc map[ir.Op]int64, op ir.Op, n, mult int64) error {
	p, ok := mulChecked(n, mult)
	if !ok {
		return ErrOverflow
	}
	if p == 0 {
		return nil
	}
	s, ok := addChecked(acc[op], p)
	if !ok {
		return ErrOverflow
	}
	acc[op] = s
	return nil
}
