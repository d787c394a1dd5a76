// Package pbound reimplements the PBound baseline (Narayanan, Norris,
// Hovland 2010), the paper's Related Work comparison point: a *source-only*
// static estimator of floating-point operations and memory accesses.
//
// PBound never looks at the binary, so it counts every operation the
// source spells out — including subexpressions the compiler constant-folds
// and loop-invariant work the compiler hoists. That is precisely the
// paper's critique ("it cannot capture compiler optimizations and hence
// produces less accurate estimates"), and the ablation benchmark
// quantifies it against Mira's binary-aware counts.
//
// The estimator walks the source AST, counting per-statement source-level
// FP operations, loads, and stores, and multiplies by loop trip counts
// derived from the same SCoP fragment Mira uses (shared grammar, separate
// implementation: PBound's loop handling is intentionally simpler —
// branches are counted as always taken, producing upper bounds).
package pbound

import (
	"fmt"

	"mira/internal/ast"
	"mira/internal/expr"
	"mira/internal/sema"
	"mira/internal/token"
)

// Estimate is a source-level operation-count bound for one function.
type Estimate struct {
	Name   string
	Flops  expr.Expr // source FP add/sub/mul/div operations
	Loads  expr.Expr // array-element reads
	Stores expr.Expr // array-element writes
}

// Report holds per-function estimates.
type Report struct {
	Funcs map[string]*Estimate
	prog  *sema.Program
	calls map[string][]callRec
}

// Analyze builds PBound estimates for every defined function.
func Analyze(prog *sema.Program) (*Report, error) {
	r := &Report{Funcs: map[string]*Estimate{}, prog: prog}
	for _, q := range prog.FuncOrder {
		fi := prog.Funcs[q]
		if fi.Decl.Body == nil {
			r.Funcs[q] = &Estimate{Name: q, Flops: expr.Const(0), Loads: expr.Const(0), Stores: expr.Const(0)}
			continue
		}
		est, err := r.analyzeFunc(fi)
		if err != nil {
			return nil, fmt.Errorf("pbound: %s: %w", q, err)
		}
		r.Funcs[q] = est
	}
	return r, nil
}

// Counts is an evaluated PBound estimate at one (function, env) point:
// the source-level upper bounds on FP operations, array-element loads,
// and array-element stores, all inclusive of callees. It is the value a
// KindPBound query returns, so the fields carry wire tags.
type Counts struct {
	Flops  int64 `json:"flops"`
	Loads  int64 `json:"loads"`
	Stores int64 `json:"stores"`
}

// EvalCounts evaluates all three inclusive bounds of fn under env.
func (r *Report) EvalCounts(fn string, env expr.Env) (Counts, error) {
	var c Counts
	var err error
	if c.Flops, err = r.EvalFlops(fn, env); err != nil {
		return Counts{}, err
	}
	if c.Loads, err = r.EvalLoads(fn, env); err != nil {
		return Counts{}, err
	}
	if c.Stores, err = r.EvalStores(fn, env); err != nil {
		return Counts{}, err
	}
	return c, nil
}

// EvalFlops evaluates the inclusive FP-operation bound of fn, following
// calls (callee params bound from caller expressions when derivable).
func (r *Report) EvalFlops(fn string, env expr.Env) (int64, error) {
	return r.evalInclusive(fn, env, func(e *Estimate) expr.Expr { return e.Flops }, 0)
}

// EvalLoads evaluates the inclusive load bound.
func (r *Report) EvalLoads(fn string, env expr.Env) (int64, error) {
	return r.evalInclusive(fn, env, func(e *Estimate) expr.Expr { return e.Loads }, 0)
}

// EvalStores evaluates the inclusive store bound.
func (r *Report) EvalStores(fn string, env expr.Env) (int64, error) {
	return r.evalInclusive(fn, env, func(e *Estimate) expr.Expr { return e.Stores }, 0)
}

type callRec struct {
	callee string
	mult   expr.Expr
	args   map[string]expr.Expr
}

func (r *Report) evalInclusive(fn string, env expr.Env, pick func(*Estimate) expr.Expr, depth int) (int64, error) {
	if depth > 64 {
		return 0, fmt.Errorf("pbound: call depth exceeded at %q", fn)
	}
	est, ok := r.Funcs[fn]
	if !ok {
		return 0, fmt.Errorf("pbound: no function %q", fn)
	}
	total, err := expr.EvalInt64(pick(est), env)
	if err != nil {
		return 0, fmt.Errorf("pbound: %s: %w", fn, err)
	}
	for _, c := range r.calls[fn] {
		mult, err := expr.EvalInt64(c.mult, env)
		if err != nil {
			return 0, fmt.Errorf("pbound: %s -> %s: %w", fn, c.callee, err)
		}
		if mult == 0 {
			continue
		}
		childEnv := make(expr.Env, len(env))
		for k, v := range env {
			childEnv[k] = v
		}
		for p, a := range c.args {
			if a == nil {
				delete(childEnv, p)
				continue
			}
			if v, err := expr.Eval(a, env); err == nil {
				childEnv[p] = v
			}
		}
		sub, err := r.evalInclusive(c.callee, childEnv, pick, depth+1)
		if err != nil {
			return 0, err
		}
		total += sub * mult
	}
	return total, nil
}

type walker struct {
	rep       *Report
	fi        *sema.FuncInfo
	params    map[string]bool
	floatVars map[string]bool // double-typed locals and params
	loops     map[string]bool
	flops     expr.Expr
	loads     expr.Expr
	stores    expr.Expr
	calls     []callRec
}

func (r *Report) analyzeFunc(fi *sema.FuncInfo) (*Estimate, error) {
	w := &walker{
		rep:       r,
		fi:        fi,
		params:    map[string]bool{},
		floatVars: map[string]bool{},
		loops:     map[string]bool{},
		flops:     expr.Const(0),
		loads:     expr.Const(0),
		stores:    expr.Const(0),
	}
	for _, p := range fi.Decl.Params {
		if p.Type.Ptr == 0 && p.Type.Kind == ast.Int {
			w.params[p.Name] = true
		}
		if p.Type.Ptr == 0 && p.Type.Kind == ast.Double {
			w.floatVars[p.Name] = true
		}
	}
	// Source-level type information: double-typed declarations.
	ast.Walk(fi.Decl.Body, func(n ast.Node) bool {
		vd, ok := n.(*ast.VarDecl)
		if ok && vd.Type.Kind == ast.Double && vd.Type.Ptr == 0 {
			for _, d := range vd.Names {
				if len(d.Dims) == 0 {
					w.floatVars[d.Name] = true
				}
			}
		}
		return true
	})
	if err := w.walkStmt(fi.Decl.Body, expr.Const(1)); err != nil {
		return nil, err
	}
	if r.calls == nil {
		r.calls = map[string][]callRec{}
	}
	r.calls[fi.QName] = w.calls
	return &Estimate{Name: fi.QName, Flops: w.flops, Loads: w.loads, Stores: w.stores}, nil
}

func (w *walker) walkStmt(s ast.Stmt, mult expr.Expr) error {
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range st.Stmts {
			if err := w.walkStmt(inner, mult); err != nil {
				return err
			}
		}
	case *ast.ExprStmt:
		w.countExpr(st.X, mult, false)
	case *ast.VarDecl:
		for _, d := range st.Names {
			if d.Init != nil {
				w.countExpr(d.Init, mult, false)
			}
		}
	case *ast.ReturnStmt:
		if st.X != nil {
			w.countExpr(st.X, mult, false)
		}
	case *ast.IfStmt:
		// Upper bound: both branches counted fully at the parent
		// multiplicity (PBound computes best-case/upper bounds and has no
		// polyhedral branch machinery).
		w.countExpr(st.Cond, mult, false)
		if err := w.walkStmt(st.Then, mult); err != nil {
			return err
		}
		if st.Else != nil {
			return w.walkStmt(st.Else, mult)
		}
	case *ast.ForStmt:
		trips, varName := w.loopTrips(st)
		inner := expr.NewMul(mult, trips)
		if st.Init != nil {
			if es, ok := st.Init.(*ast.ExprStmt); ok {
				w.countExpr(es.X, mult, false)
			}
		}
		if varName != "" {
			// A nested loop may reuse an outer loop's variable: the
			// outer one stays a loop variable once the inner one ends.
			had := w.loops[varName]
			w.loops[varName] = true
			err := w.walkStmt(st.Body, inner)
			if !had {
				delete(w.loops, varName)
			}
			return err
		}
		return w.walkStmt(st.Body, inner)
	case *ast.WhileStmt:
		// Source-only tools cannot bound while loops; PBound treats one
		// iteration (documented limitation of the baseline).
		return w.walkStmt(st.Body, mult)
	}
	return nil
}

// loopTrips derives a trip-count expression from the loop SCoP. PBound's
// version supports the same init/cond/step grammar as Mira but without
// annotations or convexity diagnostics.
func (w *walker) loopTrips(st *ast.ForStmt) (expr.Expr, string) {
	varName := ""
	var initE ast.Expr
	switch init := st.Init.(type) {
	case *ast.ExprStmt:
		if asg, ok := init.X.(*ast.AssignExpr); ok && asg.Op == token.ASSIGN {
			if id, ok := asg.LHS.(*ast.Ident); ok {
				varName = id.Name
				initE = asg.RHS
			}
		}
	case *ast.VarDecl:
		if len(init.Names) == 1 && init.Names[0].Init != nil {
			varName = init.Names[0].Name
			initE = init.Names[0].Init
		}
	}
	if varName == "" || st.Cond == nil || st.Post == nil {
		return expr.Const(1), "" // unbounded: PBound assumes once
	}
	step := int64(1)
	if un, ok := st.Post.(*ast.UnaryExpr); ok && un.Op == token.DEC {
		step = -1
	}
	if asg, ok := st.Post.(*ast.AssignExpr); ok {
		if c, okc := asg.RHS.(*ast.IntLit); okc {
			if asg.Op == token.PLUSEQ {
				step = c.Value
			} else if asg.Op == token.MINUSEQ {
				step = -c.Value
			}
		}
	}
	lo, err := w.convert(initE)
	if err != nil {
		return expr.Const(1), ""
	}
	cmp, ok := st.Cond.(*ast.BinaryExpr)
	if !ok {
		return expr.Const(1), ""
	}
	bound, err := w.convert(cmp.Y)
	if err != nil {
		return expr.Const(1), ""
	}
	var trips expr.Expr
	if step > 0 {
		hi := bound
		if cmp.Op == token.LT {
			hi = expr.NewSub(bound, expr.Const(1))
		}
		trips = expr.Trips(lo, hi, step)
	} else {
		loB := bound
		if cmp.Op == token.GT {
			loB = expr.NewAdd(bound, expr.Const(1))
		}
		trips = expr.Trips(loB, lo, -step)
	}
	return trips, varName
}

func (w *walker) convert(e ast.Expr) (expr.Expr, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return expr.Const(x.Value), nil
	case *ast.ParenExpr:
		return w.convert(x.X)
	case *ast.Ident:
		if w.loops[x.Name] {
			// Outer-loop-dependent bound: approximate with the variable
			// treated as a free parameter bound to its maximum; for the
			// upper-bound semantics of PBound this keeps estimates sound
			// in the common decreasing-extent case.
			return expr.P(x.Name), nil
		}
		if w.params[x.Name] {
			return expr.P(x.Name), nil
		}
		if g, ok := w.rep.prog.Globals[x.Name]; ok && g.IsConst && g.HasConst && g.Type.Kind != ast.Double {
			return expr.Const(g.ConstI), nil
		}
		return nil, fmt.Errorf("pbound: unknown %q", x.Name)
	case *ast.BinaryExpr:
		a, err := w.convert(x.X)
		if err != nil {
			return nil, err
		}
		b, err := w.convert(x.Y)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case token.PLUS:
			return expr.NewAdd(a, b), nil
		case token.MINUS:
			return expr.NewSub(a, b), nil
		case token.STAR:
			return expr.NewMul(a, b), nil
		}
	}
	return nil, fmt.Errorf("pbound: cannot convert %T", e)
}

// countExpr tallies source-level FP operations and memory accesses and
// reports whether e is floating-point from source-level type information:
// FP literals, double-typed scalars, array accesses (the workloads' arrays
// are double), calls to double-returning functions, and any arithmetic or
// assignment over one of those; a conditional or member expression is
// not. isStore marks the expression as an assignment target.
func (w *walker) countExpr(e ast.Expr, mult expr.Expr, isStore bool) bool {
	switch x := e.(type) {
	case *ast.FloatLit:
		return true
	case *ast.Ident:
		return w.floatVars[x.Name]
	case *ast.BinaryExpr:
		fpX := w.countExpr(x.X, mult, false)
		fpY := w.countExpr(x.Y, mult, false)
		if fpX || fpY {
			switch x.Op {
			case token.PLUS, token.MINUS, token.STAR, token.SLASH:
				w.flops = expr.NewAdd(w.flops, mult)
			}
		}
		return fpX || fpY
	case *ast.UnaryExpr:
		return w.countExpr(x.X, mult, false)
	case *ast.ParenExpr:
		return w.countExpr(x.X, mult, isStore)
	case *ast.AssignExpr:
		fpL := w.countExpr(x.LHS, mult, true)
		fpR := w.countExpr(x.RHS, mult, false)
		if x.Op != token.ASSIGN && (fpL || fpR) {
			w.flops = expr.NewAdd(w.flops, mult) // compound op is one FP op
		}
		return fpL || fpR
	case *ast.IndexExpr:
		if isStore {
			w.stores = expr.NewAdd(w.stores, mult)
		} else {
			w.loads = expr.NewAdd(w.loads, mult)
		}
		w.countExpr(x.Index, mult, false)
		// Base expression loads nothing itself.
		return true
	case *ast.CallExpr:
		w.recordCall(x, mult)
		for _, a := range x.Args {
			w.countExpr(a, mult, false)
		}
		if id, ok := x.Fun.(*ast.Ident); ok {
			if fi, found := w.rep.prog.Funcs[id.Name]; found {
				return fi.Decl.RetType.Kind == ast.Double && fi.Decl.RetType.Ptr == 0
			}
		}
	case *ast.CondExpr:
		w.countExpr(x.Cond, mult, false)
		w.countExpr(x.Then, mult, false)
		w.countExpr(x.Else, mult, false)
	case *ast.MemberExpr:
		w.countExpr(x.X, mult, false)
	}
	return false
}

func (w *walker) recordCall(call *ast.CallExpr, mult expr.Expr) {
	callee, err := w.rep.prog.ResolveCall(call, func(e ast.Expr) (string, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return "", false
		}
		for _, p := range w.fi.Decl.Params {
			if p.Name == id.Name && p.Type.Kind == ast.Class {
				return p.Type.ClassName, true
			}
		}
		var found string
		ast.Walk(w.fi.Decl.Body, func(n ast.Node) bool {
			vd, ok := n.(*ast.VarDecl)
			if ok && vd.Type.Kind == ast.Class {
				for _, d := range vd.Names {
					if d.Name == id.Name {
						found = vd.Type.ClassName
					}
				}
			}
			return found == ""
		})
		return found, found != ""
	})
	if err != nil {
		return
	}
	fi := w.rep.prog.Funcs[callee]
	rec := callRec{callee: callee, mult: mult, args: map[string]expr.Expr{}}
	for i, p := range fi.Decl.Params {
		if i < len(call.Args) {
			if v, cerr := w.convert(call.Args[i]); cerr == nil {
				rec.args[p.Name] = v
				continue
			}
		}
		rec.args[p.Name] = nil
	}
	w.calls = append(w.calls, rec)
}
