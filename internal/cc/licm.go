package cc

import (
	"math"

	"mira/internal/ast"
	"mira/internal/token"
)

// licmEntry is a subexpression hoisted into a loop preheader and the
// register that holds its value.
type licmEntry struct {
	e    ast.Expr
	v    value
	hash uint64 // exprHash(e)
	prev int    // the next older entry with the same hash, or -1
}

// hoistInvariants performs loop-invariant code motion for floating-point
// subexpressions of a for loop: maximal invariant FP binary subtrees and FP
// literals are evaluated once in the loop preheader. Hoisted instructions
// are tagged with the init-clause position, which is exactly where the
// static model attributes once-per-loop-entry cost — so binary-level
// analysis (Mira) remains exact under this optimization while source-only
// analysis (PBound) overcounts the hoisted work on every iteration.
func (fc *funcCompiler) hoistInvariants(st *ast.ForStmt, initPos token.Pos) {
	assigned := map[string]bool{}
	collectAssigned(st.Body, assigned)
	if st.Post != nil {
		collectAssignedExpr(st.Post, assigned)
	}
	if st.Cond != nil {
		collectAssignedExpr(st.Cond, assigned)
	}
	hasCall := containsCall(st.Body)

	// scan reports, children before parents, whether e is loop-invariant
	// (every leaf an FP or int literal or a name invariantName admits,
	// every operator arithmetic), whether a float literal appears in it,
	// whether hoisting it saves instructions per iteration (only an FP
	// literal, a MOVSDI each use, or a binary subtree, bare or in
	// parentheses, does) and, if it is invariant, its exprHash. An
	// invariant FP node replaces the candidates found inside it and is
	// pushed unless it repeats a live entry, so the entries from base up
	// end up holding the maximal candidates, without repeats, in source
	// order.
	base := len(fc.licm)
	var scan func(e ast.Expr) (inv, fp, worth bool, h uint64)
	scan = func(e ast.Expr) (inv, fp, worth bool, h uint64) {
		n := len(fc.licm)
		var hx, hy uint64
		switch x := e.(type) {
		case *ast.FloatLit:
			inv, fp, worth = true, true, true
		case *ast.IntLit, *ast.BoolLit:
			inv = true
		case *ast.Ident:
			inv = fc.invariantName(x.Name, assigned, hasCall)
		case *ast.BinaryExpr:
			var invY, fpY bool
			inv, fp, _, hx = scan(x.X)
			invY, fpY, _, hy = scan(x.Y)
			inv = inv && invY && !x.Op.IsCmpOp() && x.Op != token.ANDAND && x.Op != token.OROR
			fp, worth = fp || fpY, true
		case *ast.UnaryExpr:
			inv, fp, _, hx = scan(x.X)
			inv = inv && x.Op != token.INC && x.Op != token.DEC
		case *ast.ParenExpr:
			inv, fp, worth, hx = scan(x.X)
		case *ast.AssignExpr:
			scan(x.RHS)
			// LHS index expressions may hold invariants too.
			if ix, ok := x.LHS.(*ast.IndexExpr); ok {
				scan(ix.Index)
			}
		case *ast.IndexExpr:
			scan(x.X)
			scan(x.Index)
		case *ast.CallExpr:
			for _, a := range x.Args {
				scan(a)
			}
		case *ast.CondExpr:
			scan(x.Cond)
			scan(x.Then)
			scan(x.Else)
		}
		if !inv {
			return inv, fp, worth, 0
		}
		h = hashNode(e, hx, hy)
		if fp {
			fc.popHoisted(n)
			if _, dup := fc.findHoisted(e, h, n); !dup && worth {
				fc.pushHoisted(e, h)
			}
		}
		return inv, fp, worth, h
	}
	var scanStmt func(s ast.Stmt)
	scanStmt = func(s ast.Stmt) {
		switch x := s.(type) {
		case *ast.BlockStmt:
			for _, ss := range x.Stmts {
				scanStmt(ss)
			}
		case *ast.ExprStmt:
			scan(x.X)
		case *ast.IfStmt:
			scan(x.Cond)
			scanStmt(x.Then)
			if x.Else != nil {
				scanStmt(x.Else)
			}
		case *ast.ForStmt:
			// Nested loops hoist into their own preheaders.
		case *ast.WhileStmt:
		case *ast.ReturnStmt:
			if x.X != nil {
				scan(x.X)
			}
		case *ast.VarDecl:
			for _, d := range x.Names {
				if d.Init != nil {
					scan(d.Init)
				}
			}
		}
	}
	scanStmt(st.Body)
	if len(fc.licm) == base {
		return
	}
	// Evaluate candidates in the preheader, tagged at the init clause. They
	// stay invisible until all are compiled, so each compiles against the
	// enclosing loops' entries only.
	saved := fc.curPos
	fc.setPos(initPos)
	for i := base; i < len(fc.licm); i++ {
		v := fc.compileExpr(fc.licm[i].e)
		fc.licm[i].v = v
	}
	fc.licmVisible = len(fc.licm)
	fc.setPos(saved)
}

// findHoisted returns the index of the entry below limit that e repeats;
// h is exprHash(e).
func (fc *funcCompiler) findHoisted(e ast.Expr, h uint64, limit int) (int, bool) {
	i, ok := fc.licmNewest[h]
	if !ok {
		return 0, false
	}
	for ; i >= 0; i = fc.licm[i].prev {
		if i < limit && sameExpr(fc.licm[i].e, e) {
			return i, true
		}
	}
	return 0, false
}

func (fc *funcCompiler) pushHoisted(e ast.Expr, h uint64) {
	prev, ok := fc.licmNewest[h]
	if !ok {
		prev = -1
	}
	if fc.licmNewest == nil {
		fc.licmNewest = map[uint64]int{}
	}
	fc.licmNewest[h] = len(fc.licm)
	fc.licm = append(fc.licm, licmEntry{e: e, hash: h, prev: prev})
}

// popHoisted drops the entries from n up: the candidates a larger one
// replaces, and on exit from a loop the entries it hoisted.
func (fc *funcCompiler) popHoisted(n int) {
	for i := len(fc.licm) - 1; i >= n; i-- {
		if p := fc.licm[i].prev; p >= 0 {
			fc.licmNewest[fc.licm[i].hash] = p
		} else {
			delete(fc.licmNewest, fc.licm[i].hash)
		}
	}
	fc.licm = fc.licm[:n]
	fc.licmVisible = min(fc.licmVisible, n)
}

// exprHash hashes a tree as sameExpr compares it, so trees that are the
// same hash alike. A node memoized by constOf is not read again.
func (fc *funcCompiler) exprHash(e ast.Expr) uint64 {
	if fc.memo != nil {
		if m, ok := fc.memo[e]; ok {
			return m.h
		}
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		return hashNode(e, fc.exprHash(x.X), fc.exprHash(x.Y))
	case *ast.UnaryExpr:
		return hashNode(e, fc.exprHash(x.X), 0)
	case *ast.ParenExpr:
		return hashNode(e, fc.exprHash(x.X), 0)
	}
	return hashNode(e, 0, 0)
}

// hashNode is the exprHash of e given those of its operands: x for a
// unary or parenthesized one, x and y for a binary one.
func hashNode(e ast.Expr, x, y uint64) uint64 {
	const prime = 1099511628211 // FNV-1a, one word at a time
	mix := func(h, v uint64) uint64 { return (h ^ v) * prime }
	switch n := e.(type) {
	case *ast.FloatLit:
		return mix(1, math.Float64bits(n.Value))
	case *ast.IntLit:
		return mix(2, uint64(n.Value))
	case *ast.BoolLit:
		if n.Value {
			return mix(3, 1)
		}
		return mix(3, 0)
	case *ast.Ident:
		h := uint64(4)
		for i := 0; i < len(n.Name); i++ {
			h = mix(h, uint64(n.Name[i]))
		}
		return h
	case *ast.BinaryExpr:
		return mix(mix(mix(5, uint64(n.Op)), x), y)
	case *ast.UnaryExpr:
		h := mix(6, uint64(n.Op))
		if n.Postfix {
			h = mix(h, 1)
		}
		return mix(h, x)
	case *ast.ParenExpr:
		return mix(7, x)
	}
	return 0
}

// sameExpr reports whether a and b are the same tree over the node kinds
// an invariant candidate can hold (see hoistInvariants); any other kind is
// never the same. Literals compare by kind and bits, so 2 and 2.0 stay
// apart.
func sameExpr(a, b ast.Expr) bool {
	switch x := a.(type) {
	case *ast.FloatLit:
		y, ok := b.(*ast.FloatLit)
		return ok && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	case *ast.IntLit:
		y, ok := b.(*ast.IntLit)
		return ok && x.Value == y.Value
	case *ast.BoolLit:
		y, ok := b.(*ast.BoolLit)
		return ok && x.Value == y.Value
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.BinaryExpr:
		y, ok := b.(*ast.BinaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.X, y.X) && sameExpr(x.Y, y.Y)
	case *ast.UnaryExpr:
		y, ok := b.(*ast.UnaryExpr)
		return ok && x.Op == y.Op && x.Postfix == y.Postfix && sameExpr(x.X, y.X)
	case *ast.ParenExpr:
		y, ok := b.(*ast.ParenExpr)
		return ok && sameExpr(x.X, y.X)
	}
	return false
}

// invariantName reports whether a name read in the loop is invariant: a
// scalar local or param register variable not assigned in the loop, or a
// scalar global, which must be a folded constant when the body calls
// anything (callees may write it). Fields and unknown names are not.
func (fc *funcCompiler) invariantName(name string, assigned map[string]bool, hasCall bool) bool {
	if assigned[name] {
		return false
	}
	if l, found := fc.lookup(name); found {
		return !l.isArr && !l.isObj
	}
	if g, found := fc.g.prog.Globals[name]; found {
		return (g.IsConst && g.HasConst || !hasCall) && len(g.Dims) == 0
	}
	return false
}

func collectAssigned(s ast.Stmt, out map[string]bool) {
	ast.Walk(s, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignExpr:
			markAssignedTarget(x.LHS, out)
		case *ast.UnaryExpr:
			if x.Op == token.INC || x.Op == token.DEC {
				markAssignedTarget(x.X, out)
			}
		}
		return true
	})
}

func collectAssignedExpr(e ast.Expr, out map[string]bool) {
	switch x := e.(type) {
	case *ast.AssignExpr:
		markAssignedTarget(x.LHS, out)
		collectAssignedExpr(x.RHS, out)
	case *ast.UnaryExpr:
		if x.Op == token.INC || x.Op == token.DEC {
			markAssignedTarget(x.X, out)
		}
	case *ast.BinaryExpr:
		collectAssignedExpr(x.X, out)
		collectAssignedExpr(x.Y, out)
	case *ast.ParenExpr:
		collectAssignedExpr(x.X, out)
	}
}

func markAssignedTarget(e ast.Expr, out map[string]bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			out[x.Name] = true
			return
		case *ast.IndexExpr:
			e = x.X
		case *ast.MemberExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return
		}
	}
}

func containsCall(s ast.Stmt) bool {
	found := false
	ast.Walk(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}
