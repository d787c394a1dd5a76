// Package metrics implements Mira's Metric Generator (paper Sec. III-B):
// it joins the source AST with the binary AST through the line-table
// bridge and produces the parametric performance model.
//
// The generator performs the paper's two traversals. The bottom-up pass is
// embodied in SCoP extraction and guard parsing (convert.go), which
// collect loop and branch information from subtrees; the top-down pass is
// the walk below, which pushes polyhedral context (enclosing loops,
// branch constraints, annotations) down to every statement, attaching to
// each source position the execution-count expression that multiplies its
// compiled instruction counts.
//
// A strict coverage invariant ties the two sides together: every binary
// instruction of a function must be claimed by exactly one model site.
// Desynchronization between the compiler's position tagging and this
// walker is a bug, and Generate fails loudly on it.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"mira/internal/ast"
	"mira/internal/bridge"
	"mira/internal/expr"
	"mira/internal/model"
	"mira/internal/objfile"
	"mira/internal/polyhedra"
	"mira/internal/rational"
	"mira/internal/sema"
	"mira/internal/token"
)

// Config controls model generation.
type Config struct {
	// Lenient downgrades unanalyzable *branches* to always-taken (with a
	// warning) instead of failing. Loops still require annotations.
	Lenient bool
}

// Generator produces models from an analyzed program and its binary.
type Generator struct {
	prog     *sema.Program
	br       *bridge.Bridge
	cfg      Config
	Warnings []string
}

// NewGenerator builds a generator over an analyzed program and its
// decoded binary. Per-function model generation goes through FuncModel,
// which builds the line-table bridge of just the function it models. A
// Generator serves one goroutine.
func NewGenerator(prog *sema.Program, obj *objfile.File, cfg Config) *Generator {
	return &Generator{prog: prog, br: bridge.Build(obj), cfg: cfg}
}

// FuncModel generates the model for one function by qualified name and
// returns the warnings that generation produced (also accumulated on
// g.Warnings). The per-function warning slice is what the incremental
// pipeline caches alongside the function's model, so a reused function
// replays exactly the warnings a cold analysis would emit.
func (g *Generator) FuncModel(q string) (*model.Func, []string, error) {
	fi, ok := g.prog.Funcs[q]
	if !ok {
		return nil, nil, fmt.Errorf("metrics: no function %q", q)
	}
	if fi.Decl.IsExtern {
		return &model.Func{Name: q, Params: paramNames(fi.Decl), Extern: true}, nil, nil
	}
	mark := len(g.Warnings)
	fm, err := g.genFunc(fi)
	warns := append([]string(nil), g.Warnings[mark:]...)
	if err != nil {
		return nil, warns, fmt.Errorf("metrics: %s: %w", q, err)
	}
	return fm, warns, nil
}

// Generate builds the model for every defined function.
func Generate(prog *sema.Program, obj *objfile.File, cfg Config) (*model.Model, []string, error) {
	g := NewGenerator(prog, obj, cfg)
	m := &model.Model{SourceName: obj.SourceName, Funcs: map[string]*model.Func{}}
	for _, q := range prog.FuncOrder {
		fm, _, err := g.FuncModel(q)
		if err != nil {
			return nil, g.Warnings, err
		}
		m.Funcs[q] = fm
		m.Order = append(m.Order, q)
	}
	return m, g.Warnings, nil
}

func paramNames(fd *ast.FuncDecl) []string {
	var out []string
	for _, p := range fd.Params {
		out = append(out, p.Name)
	}
	return out
}

func (g *Generator) warnf(format string, args ...any) {
	g.Warnings = append(g.Warnings, fmt.Sprintf(format, args...))
}

// funcWalker carries per-function generation state.
type funcWalker struct {
	g  *Generator
	fi *sema.FuncInfo
	fb *bridge.FuncBridge
	fm *model.Func
	sc *scope
	// claimed maps positions to the site that owns them.
	claimed map[bridge.Pos]bool
	// slab holds the sites fm.Sites points into. A site is kept only for
	// a distinct position of fb.Sites, so the slab never outgrows its
	// len(fb.Sites) capacity and its elements never move.
	slab []model.Site
}

func (g *Generator) genFunc(fi *sema.FuncInfo) (*model.Func, error) {
	fb, ok := g.br.Func(fi.QName)
	if !ok {
		return nil, fmt.Errorf("no binary symbol for %s", fi.QName)
	}
	fm := &model.Func{Name: fi.QName, Params: paramNames(fi.Decl)}
	sc := &scope{
		gen:      g,
		fnParams: map[string]bool{},
		loopVars: map[string]string{},
		bindings: map[string]expr.Expr{},
		invalid:  map[string]bool{},
		annot:    map[string]bool{},
	}
	for _, p := range fi.Decl.Params {
		// Only integer scalars can participate in loop bounds and guards;
		// pointers and doubles never become count parameters.
		if p.Type.Ptr == 0 && p.Type.Kind == ast.Int {
			sc.fnParams[p.Name] = true
		}
	}
	fm.Sites = make([]*model.Site, 0, len(fb.Sites))
	w := &funcWalker{
		g: g, fi: fi, fb: fb, fm: fm, sc: sc,
		claimed: make(map[bridge.Pos]bool, len(fb.Sites)),
		slab:    make([]model.Site, 0, len(fb.Sites)),
	}

	// Prologue / epilogue instructions are tagged at the function header.
	w.claim(fi.Decl.Pos(), expr.Const(1), "function prologue/epilogue", nil)

	if err := w.walkStmt(fi.Decl.Body, UnitContext()); err != nil {
		return nil, err
	}

	// Coverage invariant: every instruction position must be claimed.
	// claim keeps one site per distinct claimed position that has
	// instructions, so full coverage means as many sites as positions.
	if len(fm.Sites) != len(fb.Sites) {
		var missing []string
		for _, p := range fb.Positions() {
			if !w.claimed[p] {
				missing = append(missing, fmt.Sprintf("%d:%d", p.Line, p.Col))
			}
		}
		return nil, fmt.Errorf("unclaimed instruction positions %s (compiler/metrics desync)",
			strings.Join(missing, ", "))
	}

	for ap := range sc.annot {
		fm.AnnotParams = append(fm.AnnotParams, ap)
	}
	sort.Strings(fm.AnnotParams)
	sortSites(fm)
	return fm, nil
}

func sortSites(fm *model.Func) {
	sort.SliceStable(fm.Sites, func(i, j int) bool {
		if fm.Sites[i].Line != fm.Sites[j].Line {
			return fm.Sites[i].Line < fm.Sites[j].Line
		}
		return fm.Sites[i].Col < fm.Sites[j].Col
	})
	sort.SliceStable(fm.Calls, func(i, j int) bool { return fm.Calls[i].Line < fm.Calls[j].Line })
}

// zeroCtx is the context of skipped or unreachable code.
func zeroCtx() Context { return Override(expr.Const(0)) }

// claim attaches the instructions at pos to a site with the given
// multiplicity. Positions with no attributed instructions are skipped.
// The site's label is desc followed by e's source text when e is non-nil;
// Site.Label renders it when the label is emitted.
func (w *funcWalker) claim(pos token.Pos, mult expr.Expr, desc string, e ast.Expr) {
	p := bridge.Pos{Line: int32(pos.Line), Col: int32(pos.Col)}
	if w.claimed[p] {
		return
	}
	w.claimed[p] = true
	sc := w.fb.Sites[p]
	if sc == nil {
		return
	}
	w.slab = append(w.slab, model.Site{
		Line: pos.Line, Col: pos.Col,
		Desc:   desc,
		Expr:   e,
		Counts: sc.ByCategory,
		Flops:  sc.Flops,
		Instrs: sc.Instrs,
		Mult:   mult,
		Ops:    sc.Ops,
	})
	w.fm.Sites = append(w.fm.Sites, &w.slab[len(w.slab)-1])
}

func (w *funcWalker) claimCtx(pos token.Pos, ctx Context, desc string, e ast.Expr) error {
	mult, err := ctx.Count()
	if err != nil {
		return fmt.Errorf("%s: %w", pos, err)
	}
	w.claim(pos, mult, desc, e)
	return nil
}

// walkStmt processes one statement under ctx. It returns a replacement
// context for the *following* statements in the same block, implementing
// path sensitivity for guard-continue/break/return patterns; nil means
// unchanged.
func (w *funcWalker) walkStmt(s ast.Stmt, ctx Context) error {
	_, err := w.walkStmtRest(s, ctx)
	return err
}

func (w *funcWalker) walkStmtRest(s ast.Stmt, ctx Context) (*Context, error) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		if st.Annot != nil && st.Annot.Skip {
			return nil, w.walkZero(st)
		}
		cur := ctx
		for _, inner := range st.Stmts {
			rest, err := w.walkStmtRest(inner, cur)
			if err != nil {
				return nil, err
			}
			if rest != nil {
				cur = *rest
			}
		}
		return nil, nil

	case *ast.EmptyStmt:
		return nil, nil

	case *ast.VarDecl:
		if st.Annot != nil && st.Annot.Skip {
			return nil, w.walkZero(st)
		}
		if err := w.claimCtx(st.Pos(), ctx, declDesc(st), nil); err != nil {
			return nil, err
		}
		w.recordCallsIn(st, ctx)
		// Copy propagation for straight-line integer locals.
		if w.isStraightLine(ctx) {
			for _, d := range st.Names {
				if st.Type.Kind == ast.Int && len(d.Dims) == 0 && d.Init != nil {
					if v, err := w.sc.convert(d.Init); err == nil {
						w.sc.bindings[d.Name] = v
					} else {
						w.sc.invalid[d.Name] = true
					}
				}
			}
		} else {
			for _, d := range st.Names {
				w.sc.invalid[d.Name] = true
			}
		}
		return nil, nil

	case *ast.ExprStmt:
		if st.Annot != nil && st.Annot.Skip {
			return nil, w.walkZero(st)
		}
		if err := w.claimCtx(st.Pos(), ctx, "", st.X); err != nil {
			return nil, err
		}
		w.recordCallsIn(st, ctx)
		w.updateBindings(st.X, ctx)
		return nil, nil

	case *ast.ReturnStmt:
		if err := w.claimCtx(st.Pos(), ctx, "return", nil); err != nil {
			return nil, err
		}
		w.recordCallsIn(st, ctx)
		if w.isStraightLine(ctx) {
			z := zeroCtx()
			return &z, nil // code after an unconditional return is dead
		}
		return nil, nil

	case *ast.BreakStmt:
		if err := w.claimCtx(st.Pos(), ctx, "break", nil); err != nil {
			return nil, err
		}
		z := zeroCtx()
		return &z, nil

	case *ast.ContinueStmt:
		if err := w.claimCtx(st.Pos(), ctx, "continue", nil); err != nil {
			return nil, err
		}
		z := zeroCtx()
		return &z, nil

	case *ast.IfStmt:
		return w.walkIf(st, ctx)

	case *ast.ForStmt:
		return nil, w.walkFor(st, ctx)

	case *ast.WhileStmt:
		return nil, w.walkWhile(st, ctx)
	}
	return nil, fmt.Errorf("%s: unsupported statement %T", s.Pos(), s)
}

// isStraightLine reports whether ctx is the unguarded top-of-function
// context (safe for copy propagation and dead-code inference).
func (w *funcWalker) isStraightLine(ctx Context) bool {
	return len(ctx.terms) == 1 && len(ctx.terms[0].nest.Entries) == 0 && expr.IsOne(ctx.mult)
}

// walkZero claims every position in a skipped subtree with multiplicity
// zero, so coverage still holds (the paper's skip annotation removes the
// structure from the model, not from the binary).
func (w *funcWalker) walkZero(s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range st.Stmts {
			if err := w.walkZero(inner); err != nil {
				return err
			}
		}
		return nil
	case *ast.IfStmt:
		w.claim(st.Cond.Pos(), expr.Const(0), "skipped branch", nil)
		if err := w.walkZero(st.Then); err != nil {
			return err
		}
		w.claim(st.Then.Pos(), expr.Const(0), "skipped branch exit", nil)
		if st.Else != nil {
			return w.walkZero(st.Else)
		}
		return nil
	case *ast.ForStmt:
		if st.Init != nil {
			w.claim(st.Init.Pos(), expr.Const(0), "skipped loop init", nil)
		}
		w.claim(st.Pos(), expr.Const(0), "skipped loop", nil)
		if st.Cond != nil {
			w.claim(st.Cond.Pos(), expr.Const(0), "skipped loop cond", nil)
		}
		if st.Post != nil {
			w.claim(st.Post.Pos(), expr.Const(0), "skipped loop post", nil)
		}
		return w.walkZero(st.Body)
	case *ast.WhileStmt:
		w.claim(st.Cond.Pos(), expr.Const(0), "skipped loop cond", nil)
		return w.walkZero(st.Body)
	default:
		w.claim(s.Pos(), expr.Const(0), "skipped", nil)
		return nil
	}
}

func (w *funcWalker) walkIf(st *ast.IfStmt, ctx Context) (*Context, error) {
	// The condition evaluates once per context execution.
	if err := w.claimCtx(st.Cond.Pos(), ctx, "if ", st.Cond); err != nil {
		return nil, err
	}
	w.recordCallsInExpr(st.Cond, ctx, st.Cond.Pos())

	var thenCtx, elseCtx Context
	ann := st.Annot
	switch {
	case ann != nil && ann.Skip:
		if err := w.walkZero(st.Then); err != nil {
			return nil, err
		}
		w.claim(st.Then.Pos(), expr.Const(0), "skipped branch exit", nil)
		if st.Else != nil {
			return nil, w.walkZero(st.Else)
		}
		return nil, nil
	case ann != nil && ann.BranchCount != nil:
		cnt := w.sc.annotValue(ann.BranchCount)
		thenCtx = Override(cnt)
		total, err := ctx.Count()
		if err != nil {
			return nil, err
		}
		elseCtx = Override(expr.NewSub(total, cnt))
	case ann != nil && ann.BranchFrac != nil:
		if ann.BranchFrac.IsParam {
			frac := w.sc.annotValue(ann.BranchFrac)
			total, err := ctx.Count()
			if err != nil {
				return nil, err
			}
			thenCtx = Override(expr.NewMul(total, frac))
			elseCtx = Override(expr.NewMul(total, expr.NewSub(expr.Const(1), frac)))
		} else {
			f, err := rational.FromFloat(ann.BranchFrac.Num)
			if err != nil {
				return nil, fmt.Errorf("%s: bad br_frac: %w", ann.Pos, err)
			}
			thenCtx = ctx.Scale(f)
			elseCtx = ctx.Scale(rational.One.Sub(f))
		}
	default:
		gs, err := w.sc.parseGuards(st.Cond)
		if err != nil {
			if !w.g.cfg.Lenient {
				return nil, err
			}
			w.g.warnf("%s: %v; treating branch as always taken", st.Pos(), err)
			thenCtx, elseCtx = ctx, ctx
			break
		}
		if gs.negate {
			thenCtx = ctx.Else(gs.guards)
			elseCtx = ctx.WithGuards(gs.guards)
		} else {
			thenCtx = ctx.WithGuards(gs.guards)
			elseCtx = ctx.Else(gs.guards)
		}
	}

	if err := w.walkStmt(st.Then, thenCtx); err != nil {
		return nil, err
	}
	// The jump over the else branch is tagged at the then position.
	if st.Else != nil {
		if err := w.claimCtx(st.Then.Pos(), thenCtx, "branch exit", nil); err != nil {
			return nil, err
		}
		if err := w.walkStmt(st.Else, elseCtx); err != nil {
			return nil, err
		}
		return nil, nil
	}
	// Path sensitivity: "if (c) { continue/break/return; }" narrows the
	// context of the remaining statements to the complement.
	if terminates(st.Then) {
		return &elseCtx, nil
	}
	return nil, nil
}

// terminates reports whether a statement always transfers control away.
func terminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.BreakStmt, *ast.ContinueStmt, *ast.ReturnStmt:
		return true
	case *ast.BlockStmt:
		if len(st.Stmts) == 0 {
			return false
		}
		return terminates(st.Stmts[len(st.Stmts)-1])
	}
	return false
}

func (w *funcWalker) walkFor(st *ast.ForStmt, ctx Context) error {
	if st.Annot != nil && st.Annot.Skip {
		return w.walkZero(st)
	}

	// A break inside this loop (not inside an inner loop) makes the trip
	// count data-dependent; the user must annotate lp_iter.
	if (st.Annot == nil || st.Annot.LoopIter == nil) && hasDirectBreak(st.Body) {
		return &ErrNotStatic{Pos: st.Pos(), Reason: "loop contains break; annotate with lp_iter"}
	}

	scop, err := w.sc.extractSCoP(st)
	if err != nil {
		return err
	}

	initPos := st.Pos()
	if st.Init != nil {
		initPos = st.Init.Pos()
	}
	if err := w.claimCtx(initPos, ctx, "loop init", nil); err != nil {
		return err
	}

	loopCtx := ctx.WithLoop(scop.loop)

	// Condition executes trips+1 times; post executes trips times.
	if st.Cond != nil {
		loopCount, err := loopCtx.Count()
		if err != nil {
			return &ErrNotStatic{Pos: st.Pos(), Reason: err.Error()}
		}
		ctxCount, err := ctx.Count()
		if err != nil {
			return err
		}
		w.claim(st.Cond.Pos(), expr.NewAdd(loopCount, ctxCount), "loop cond ", st.Cond)
	}
	if st.Post != nil {
		if err := w.claimCtx(st.Post.Pos(), loopCtx, "loop post ", st.Post); err != nil {
			return &ErrNotStatic{Pos: st.Pos(), Reason: err.Error()}
		}
	}

	// Bind the loop variable for inner SCoPs, then walk the body.
	var saved string
	var hadSaved bool
	if scop.srcVar != "" {
		saved, hadSaved = w.sc.loopVars[scop.srcVar]
		w.sc.loopVars[scop.srcVar] = scop.loop.Var
	}
	err = w.walkStmt(st.Body, loopCtx)
	if scop.srcVar != "" {
		if hadSaved {
			w.sc.loopVars[scop.srcVar] = saved
		} else {
			delete(w.sc.loopVars, scop.srcVar)
		}
	}
	return err
}

func (w *funcWalker) walkWhile(st *ast.WhileStmt, ctx Context) error {
	if st.Annot != nil && st.Annot.Skip {
		return w.walkZero(st)
	}
	if st.Annot == nil || st.Annot.LoopIter == nil {
		return &ErrNotStatic{Pos: st.Pos(), Reason: "while loops need an lp_iter annotation"}
	}
	iter := w.sc.annotValue(st.Annot.LoopIter)
	v := w.sc.uniqueLoopVar("__while")
	loopCtx := ctx.WithLoop(polyhedra.Loop{Var: v, Lo: expr.Const(1), Hi: iter, Step: 1})

	// The condition site also carries the back-edge jump; modeled as
	// trips+1 (documented approximation: the back edge itself runs trips).
	loopCount, err := loopCtx.Count()
	if err != nil {
		return err
	}
	ctxCount, err := ctx.Count()
	if err != nil {
		return err
	}
	w.claim(st.Cond.Pos(), expr.NewAdd(loopCount, ctxCount), "while cond ", st.Cond)
	return w.walkStmt(st.Body, loopCtx)
}

func hasDirectBreak(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.BreakStmt:
		return true
	case *ast.BlockStmt:
		for _, inner := range st.Stmts {
			if hasDirectBreak(inner) {
				return true
			}
		}
	case *ast.IfStmt:
		if hasDirectBreak(st.Then) {
			return true
		}
		if st.Else != nil {
			return hasDirectBreak(st.Else)
		}
	case *ast.ForStmt, *ast.WhileStmt:
		return false // breaks in there bind to the inner loop
	}
	return false
}

// ---------------------------------------------------------------------------
// Calls and bindings

// recordCallsIn walks a statement's expressions for call sites.
func (w *funcWalker) recordCallsIn(s ast.Stmt, ctx Context) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		w.recordCallsInExpr(st.X, ctx, st.Pos())
	case *ast.VarDecl:
		for _, d := range st.Names {
			if d.Init != nil {
				w.recordCallsInExpr(d.Init, ctx, st.Pos())
			}
		}
	case *ast.ReturnStmt:
		if st.X != nil {
			w.recordCallsInExpr(st.X, ctx, st.Pos())
		}
	}
}

func (w *funcWalker) recordCallsInExpr(e ast.Expr, ctx Context, pos token.Pos) {
	ast.Walk(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.recordCall(call, ctx, pos)
		return true
	})
}

func (w *funcWalker) recordCall(call *ast.CallExpr, ctx Context, pos token.Pos) {
	callee, err := w.g.prog.ResolveCall(call, func(e ast.Expr) (string, bool) {
		return w.receiverClass(e)
	})
	if err != nil {
		return // the compiler already rejected unresolvable calls
	}
	fi := w.g.prog.Funcs[callee]
	mult, merr := ctx.Count()
	if merr != nil {
		return
	}
	mc := &model.Call{
		Callee: callee,
		Line:   pos.Line,
		Col:    pos.Col,
		Mult:   mult,
		Args:   map[string]expr.Expr{},
	}
	for i, p := range fi.Decl.Params {
		mc.ArgOrder = append(mc.ArgOrder, p.Name)
		if i >= len(call.Args) {
			mc.Args[p.Name] = nil
			continue
		}
		if v, cerr := w.sc.convert(call.Args[i]); cerr == nil {
			mc.Args[p.Name] = v
		} else {
			mc.Args[p.Name] = nil
		}
	}
	w.fm.Calls = append(w.fm.Calls, mc)
}

// receiverClass resolves the static class of a receiver expression using
// walker scope information (declared locals are tracked by sema; here we
// only need the syntactic cases the call graph supports).
func (w *funcWalker) receiverClass(e ast.Expr) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", false
	}
	types := w.g.prog.Funcs[w.fi.QName]
	_ = types
	// Search declared class variables in this function.
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
	if found != "" {
		return found, true
	}
	for _, p := range w.fi.Decl.Params {
		if p.Name == id.Name && p.Type.Kind == ast.Class {
			return p.Type.ClassName, true
		}
	}
	if g, ok := w.g.prog.Globals[id.Name]; ok && g.Type.Kind == ast.Class {
		return g.Type.ClassName, true
	}
	return "", false
}

// updateBindings maintains copy propagation across straight-line code.
func (w *funcWalker) updateBindings(e ast.Expr, ctx Context) {
	asg, ok := e.(*ast.AssignExpr)
	if !ok {
		// ++/-- on a tracked binding invalidates it.
		if un, okU := e.(*ast.UnaryExpr); okU && (un.Op == token.INC || un.Op == token.DEC) {
			if name := identName(un.X); name != "" {
				w.sc.invalid[name] = true
				delete(w.sc.bindings, name)
			}
		}
		return
	}
	name := identName(asg.LHS)
	if name == "" {
		return
	}
	if !w.isStraightLine(ctx) || asg.Op != token.ASSIGN {
		w.sc.invalid[name] = true
		delete(w.sc.bindings, name)
		return
	}
	if v, err := w.sc.convert(asg.RHS); err == nil {
		w.sc.bindings[name] = v
		delete(w.sc.invalid, name)
	} else {
		w.sc.invalid[name] = true
		delete(w.sc.bindings, name)
	}
}

func declDesc(vd *ast.VarDecl) string {
	var names []string
	for _, d := range vd.Names {
		names = append(names, d.Name)
	}
	return "declare " + strings.Join(names, ", ")
}
