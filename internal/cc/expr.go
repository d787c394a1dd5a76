package cc

import (
	"math"

	"mira/internal/ast"
	"mira/internal/ir"
	"mira/internal/sema"
	"mira/internal/token"
)

// lvalue is an assignable location.
type lvalue struct {
	isReg bool
	reg   int32 // register location
	// Memory location: mem[base + idx + off].
	base int32
	idx  int32
	off  int64
	typ  ast.Type
}

// ---------------------------------------------------------------------------
// Expressions

func (fc *funcCompiler) compileExpr(e ast.Expr) value {
	fc.exprDepth++
	defer func() { fc.exprDepth-- }()
	// Constant folding: whole subtrees that sema can evaluate fold to one
	// immediate load (PBound, reading source only, still counts their ops).
	if !fc.g.opts.DisableOpt {
		if v, ok := fc.foldConst(e); ok {
			return v
		}
	}
	// Only these kinds are ever hoisted (see hoistInvariants).
	if fc.licmVisible > 0 {
		switch e.(type) {
		case *ast.FloatLit, *ast.BinaryExpr, *ast.ParenExpr:
			if i, ok := fc.findHoisted(e, fc.exprHash(e), fc.licmVisible); ok {
				return fc.licm[i].v
			}
		}
	}
	switch x := e.(type) {
	case *ast.IntLit:
		r := fc.reg()
		fc.emit(ir.MOVRI, r, ir.NoReg, ir.NoReg, x.Value)
		return value{reg: r, typ: ast.TypeInt}
	case *ast.FloatLit:
		r := fc.reg()
		fc.emit(ir.MOVSDI, r, ir.NoReg, ir.NoReg, int64(math.Float64bits(x.Value)))
		return value{reg: r, typ: ast.TypeDouble}
	case *ast.BoolLit:
		r := fc.reg()
		v := int64(0)
		if x.Value {
			v = 1
		}
		fc.emit(ir.MOVRI, r, ir.NoReg, ir.NoReg, v)
		return value{reg: r, typ: ast.TypeBool}
	case *ast.StringLit:
		fc.errf(x.Pos(), "string literals are not supported in expressions")
	case *ast.ParenExpr:
		return fc.compileExpr(x.X)
	case *ast.Ident:
		return fc.loadIdent(x)
	case *ast.IndexExpr:
		lv := fc.compileLValue(x)
		return fc.loadLValue(lv)
	case *ast.MemberExpr:
		lv := fc.compileLValue(x)
		return fc.loadLValue(lv)
	case *ast.UnaryExpr:
		return fc.compileUnary(x)
	case *ast.BinaryExpr:
		return fc.compileBinary(x)
	case *ast.AssignExpr:
		return fc.compileAssign(x)
	case *ast.CallExpr:
		v, ok := fc.compileCall(x, false)
		if !ok {
			fc.errf(x.Pos(), "void function used as a value")
		}
		return v
	case *ast.CondExpr:
		return fc.compileTernary(x)
	}
	fc.errf(e.Pos(), "unsupported expression %T", e)
	return value{}
}

// foldConst folds integer and floating constant subtrees. Pure literals
// always fold; composite expressions fold only when every leaf is constant,
// and as floats only when a float literal appears.
func (fc *funcCompiler) foldConst(e ast.Expr) (value, bool) {
	switch e.(type) {
	case *ast.IntLit, *ast.FloatLit, *ast.BoolLit:
		return value{}, false // base emission handles these
	}
	c := fc.constOf(e)
	switch {
	case c.IntOK():
		r := fc.reg()
		fc.emit(ir.MOVRI, r, ir.NoReg, ir.NoReg, c.I)
		return value{reg: r, typ: ast.TypeInt}, true
	case c.HasFloat() && c.FloatOK():
		r := fc.reg()
		fc.emit(ir.MOVSDI, r, ir.NoReg, ir.NoReg, int64(math.Float64bits(c.F)))
		return value{reg: r, typ: ast.TypeDouble}, true
	}
	return value{}, false
}

// memoDepth bounds how often the compiler reads an expression node.
// compileExpr asks about every level of a tree. The first memoDepth levels
// of nesting read their whole subtree each time, which costs the shallow
// trees of ordinary code less than a map entry per node would. Deeper
// down, constOf memoizes the reading and exprHash of every node more than
// memoDepth levels tall, so no node is read more than about 2*memoDepth
// times, however long the expression.
const memoDepth = 8

// nodeMemo is what the compiler knows of one composite expression node.
type nodeMemo struct {
	c sema.Const
	h uint64 // exprHash
}

// constOf is sema's constant reading of e.
func (fc *funcCompiler) constOf(e ast.Expr) sema.Const {
	if fc.memo != nil { // even a nil map hashes an interface key
		if m, ok := fc.memo[e]; ok {
			return m.c
		}
	}
	if fc.exprDepth < memoDepth {
		return fc.g.prog.Fold(e, nil)
	}
	fc.memoStack = fc.memoStack[:0]
	return fc.g.prog.Fold(e, fc.memoize)
}

// memoize records the constant reading and exprHash of each node more
// than memoDepth levels tall. It combines a node's hash and height from
// its operands', which Fold visits first, so they are on top of memoStack.
func (fc *funcCompiler) memoize(e ast.Expr, c sema.Const) {
	st := fc.memoStack
	var x, y hashHeight
	switch e.(type) {
	case *ast.BinaryExpr:
		x, y = st[len(st)-2], st[len(st)-1]
		st = st[:len(st)-2]
	case *ast.UnaryExpr, *ast.ParenExpr:
		x = st[len(st)-1]
		st = st[:len(st)-1]
	}
	n := hashHeight{h: hashNode(e, x.h, y.h), height: 1 + max(x.height, y.height)}
	fc.memoStack = append(st, n)
	if n.height > memoDepth {
		if fc.memo == nil {
			fc.memo = map[ast.Expr]nodeMemo{}
		}
		fc.memo[e] = nodeMemo{c: c, h: n.h}
	}
}

// hashHeight is a node's exprHash and height on memoStack.
type hashHeight struct {
	h      uint64
	height int
}

func (fc *funcCompiler) loadIdent(x *ast.Ident) value {
	if l, ok := fc.lookup(x.Name); ok {
		t := l.typ
		if l.isArr {
			t.Ptr++
		}
		return value{reg: l.reg, typ: t}
	}
	// Implicit field access inside a method body.
	if fc.fi.Class != nil {
		if f, ok := fc.fi.Class.FieldByName(x.Name); ok {
			if f.Size > 1 {
				// Field array: produce its address.
				r := fc.reg()
				fc.emit(ir.LEA, r, fc.thisReg, ir.NoReg, f.Offset)
				t := f.Type
				t.Ptr++
				return value{reg: r, typ: t}
			}
			return fc.loadLValue(lvalue{base: fc.thisReg, idx: ir.NoReg, off: f.Offset, typ: f.Type})
		}
	}
	if g, ok := fc.g.prog.Globals[x.Name]; ok {
		if g.IsConst && g.HasConst && len(g.Dims) == 0 {
			r := fc.reg()
			if g.Type.Kind == ast.Double {
				fc.emit(ir.MOVSDI, r, ir.NoReg, ir.NoReg, int64(math.Float64bits(g.ConstF)))
				return value{reg: r, typ: ast.TypeDouble}
			}
			fc.emit(ir.MOVRI, r, ir.NoReg, ir.NoReg, g.ConstI)
			return value{reg: r, typ: g.Type}
		}
		addr := int64(fc.g.globalAddr[x.Name])
		if len(g.Dims) > 0 {
			r := fc.reg()
			fc.emit(ir.MOVRI, r, ir.NoReg, ir.NoReg, addr)
			t := g.Type
			t.Ptr++
			return value{reg: r, typ: t}
		}
		r := fc.reg()
		if g.Type.Kind == ast.Double {
			fc.emit(ir.MOVSDLD, r, ir.NoReg, ir.NoReg, addr)
		} else {
			fc.emit(ir.MOVLD, r, ir.NoReg, ir.NoReg, addr)
		}
		return value{reg: r, typ: g.Type}
	}
	fc.errf(x.Pos(), "undefined name %q", x.Name)
	return value{}
}

func (fc *funcCompiler) loadLValue(lv lvalue) value {
	if lv.isReg {
		return value{reg: lv.reg, typ: lv.typ}
	}
	r := fc.reg()
	if lv.typ.Ptr == 0 && lv.typ.Kind == ast.Double {
		fc.emit(ir.MOVSDLD, r, lv.base, lv.idx, lv.off)
	} else {
		fc.emit(ir.MOVLD, r, lv.base, lv.idx, lv.off)
	}
	return value{reg: r, typ: lv.typ}
}

func (fc *funcCompiler) storeLValue(lv lvalue, v value) {
	v = fc.coerce(v, lv.typ)
	if lv.isReg {
		fc.move(lv.reg, v)
		return
	}
	if lv.typ.Ptr == 0 && lv.typ.Kind == ast.Double {
		fc.emit(ir.MOVSDST, lv.base, v.reg, lv.idx, lv.off)
	} else {
		fc.emit(ir.MOVST, lv.base, v.reg, lv.idx, lv.off)
	}
}

// compileLValue resolves an assignable expression into a location.
func (fc *funcCompiler) compileLValue(e ast.Expr) lvalue {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fc.compileLValue(x.X)
	case *ast.Ident:
		if l, ok := fc.lookup(x.Name); ok {
			if l.isArr || l.isObj {
				fc.errf(x.Pos(), "cannot assign to array or object %q", x.Name)
			}
			return lvalue{isReg: true, reg: l.reg, typ: l.typ}
		}
		if fc.fi.Class != nil {
			if f, ok := fc.fi.Class.FieldByName(x.Name); ok {
				return lvalue{base: fc.thisReg, idx: ir.NoReg, off: f.Offset, typ: f.Type}
			}
		}
		if g, ok := fc.g.prog.Globals[x.Name]; ok {
			if g.IsConst {
				fc.errf(x.Pos(), "cannot assign to const global %q", x.Name)
			}
			if len(g.Dims) > 0 {
				fc.errf(x.Pos(), "cannot assign to array %q", x.Name)
			}
			return lvalue{base: ir.NoReg, idx: ir.NoReg, off: int64(fc.g.globalAddr[x.Name]), typ: g.Type}
		}
		fc.errf(x.Pos(), "undefined name %q", x.Name)
	case *ast.IndexExpr:
		return fc.compileIndexLValue(x)
	case *ast.MemberExpr:
		return fc.compileMemberLValue(x)
	case *ast.UnaryExpr:
		if x.Op == token.STAR {
			p := fc.compileExpr(x.X)
			if p.typ.Ptr == 0 {
				fc.errf(x.Pos(), "cannot dereference non-pointer")
			}
			return lvalue{base: p.reg, idx: ir.NoReg, off: 0, typ: p.typ.Elem()}
		}
	}
	fc.errf(e.Pos(), "expression is not assignable")
	return lvalue{}
}

// compileIndexLValue handles a[i] and a[i][j], including the MOVSXD index
// widening every array access performs (the 64-bit mode instruction class).
func (fc *funcCompiler) compileIndexLValue(x *ast.IndexExpr) lvalue {
	// Collect the index chain: base expression and indices outermost-first.
	var indices []ast.Expr
	baseE := ast.Expr(x)
	for {
		ix, ok := baseE.(*ast.IndexExpr)
		if !ok {
			break
		}
		indices = append([]ast.Expr{ix.Index}, indices...)
		baseE = ix.X
	}

	// Resolve the base: local array, param pointer, global array, field.
	var baseReg int32
	var elem ast.Type
	var dimRegs []int32
	switch b := baseE.(type) {
	case *ast.Ident:
		if l, ok := fc.lookup(b.Name); ok {
			if !l.isArr {
				fc.errf(b.Pos(), "%q is not an array", b.Name)
			}
			baseReg = l.reg
			elem = l.typ
			dimRegs = l.dimRegs
		} else if f := fc.fieldOf(b.Name); f != nil {
			if f.Type.Ptr > 0 {
				// Pointer-typed field used as an array base: load it.
				pv := fc.loadLValue(lvalue{base: fc.thisReg, idx: ir.NoReg, off: f.Offset, typ: f.Type})
				baseReg = pv.reg
				elem = f.Type.Elem()
			} else {
				r := fc.reg()
				fc.emit(ir.LEA, r, fc.thisReg, ir.NoReg, f.Offset)
				baseReg = r
				elem = f.Type
			}
		} else if g, ok := fc.g.prog.Globals[b.Name]; ok && len(g.Dims) > 0 {
			r := fc.reg()
			fc.emit(ir.MOVRI, r, ir.NoReg, ir.NoReg, int64(fc.g.globalAddr[b.Name]))
			baseReg = r
			elem = g.Type
			// Materialize constant dims for multi-dim addressing.
			if len(g.Dims) > 1 {
				for _, d := range g.Dims {
					dr := fc.reg()
					fc.emit(ir.MOVRI, dr, ir.NoReg, ir.NoReg, d)
					dimRegs = append(dimRegs, dr)
				}
			}
		} else {
			fc.errf(b.Pos(), "undefined array %q", b.Name)
		}
	case *ast.MemberExpr:
		lv := fc.compileMemberLValue(b)
		// Pointer-typed field: load it; array field: its address.
		if lv.typ.Ptr > 0 {
			pv := fc.loadLValue(lv)
			baseReg = pv.reg
			elem = lv.typ.Elem()
		} else {
			fc.errf(b.Pos(), "field %q is not indexable", b.Sel)
		}
	default:
		// General pointer-valued expression.
		pv := fc.compileExpr(baseE)
		if pv.typ.Ptr == 0 {
			fc.errf(baseE.Pos(), "indexing non-pointer expression")
		}
		baseReg = pv.reg
		elem = pv.typ.Elem()
	}

	if len(indices) > 1 && len(dimRegs) < len(indices) {
		fc.errf(x.Pos(), "multi-dimensional indexing requires declared dimensions")
	}

	// Compute the linearized index with MOVSXD widening per index.
	var idxReg int32 = ir.NoReg
	for k, ie := range indices {
		iv := fc.compileExpr(ie)
		if iv.isFloat() {
			fc.errf(ie.Pos(), "array index must be integral")
		}
		wide := fc.reg()
		fc.emit(ir.MOVSXD, wide, iv.reg, ir.NoReg, 0)
		cur := wide
		if idxReg == ir.NoReg {
			idxReg = cur
		} else {
			// idx = idx*dim_k + cur
			mul := fc.reg()
			fc.emit(ir.IMUL, mul, idxReg, dimRegs[k], 0)
			add := fc.reg()
			fc.emit(ir.ADD, add, mul, cur, 0)
			idxReg = add
		}
	}
	t := elem
	t.Ptr = 0
	if elem.Ptr > 0 {
		t = elem
	}
	return lvalue{base: baseReg, idx: idxReg, off: 0, typ: t}
}

// fieldOf resolves an unqualified name to a field of the method's class,
// unless shadowed by a local.
func (fc *funcCompiler) fieldOf(name string) *sema.Field {
	if fc.fi.Class == nil {
		return nil
	}
	if _, shadowed := fc.lookup(name); shadowed {
		return nil
	}
	f, ok := fc.fi.Class.FieldByName(name)
	if !ok {
		return nil
	}
	return f
}

func (fc *funcCompiler) compileMemberLValue(x *ast.MemberExpr) lvalue {
	// Receiver must be a class-typed variable (object or pointer).
	recv := fc.compileExpr(x.X)
	cls := ""
	if recv.typ.Kind == ast.Class {
		cls = recv.typ.ClassName
	}
	if cls == "" {
		fc.errf(x.Pos(), "member access on non-class expression")
	}
	ci := fc.g.prog.Classes[cls]
	f, ok := ci.FieldByName(x.Sel)
	if !ok {
		fc.errf(x.Pos(), "class %q has no field %q", cls, x.Sel)
	}
	return lvalue{base: recv.reg, idx: ir.NoReg, off: f.Offset, typ: f.Type}
}

// classOf returns the class name of an expression, if class-typed.
func (fc *funcCompiler) classOf(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if l, ok := fc.lookup(x.Name); ok {
			if l.typ.Kind == ast.Class {
				return l.typ.ClassName, true
			}
			return "", false
		}
		if g, ok := fc.g.prog.Globals[x.Name]; ok && g.Type.Kind == ast.Class {
			return g.Type.ClassName, true
		}
	case *ast.ParenExpr:
		return fc.classOf(x.X)
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Operators

func (fc *funcCompiler) coerce(v value, want ast.Type) value {
	if want.Ptr > 0 || v.typ.Ptr > 0 {
		return v // pointers move as integers
	}
	srcF := v.typ.Kind == ast.Double
	dstF := want.Kind == ast.Double
	switch {
	case srcF == dstF:
		return v
	case dstF:
		r := fc.reg()
		fc.emit(ir.CVTSI2SD, r, v.reg, ir.NoReg, 0)
		return value{reg: r, typ: ast.TypeDouble}
	default:
		r := fc.reg()
		fc.emit(ir.CVTTSD2SI, r, v.reg, ir.NoReg, 0)
		return value{reg: r, typ: want}
	}
}

func (fc *funcCompiler) compileUnary(x *ast.UnaryExpr) value {
	switch x.Op {
	case token.MINUS:
		v := fc.compileExpr(x.X)
		r := fc.reg()
		if v.isFloat() {
			z := fc.reg()
			fc.emit(ir.MOVSDI, z, ir.NoReg, ir.NoReg, 0)
			fc.emit(ir.SUBSD, r, z, v.reg, 0)
			return value{reg: r, typ: ast.TypeDouble}
		}
		fc.emit(ir.NEG, r, v.reg, ir.NoReg, 0)
		return value{reg: r, typ: v.typ}
	case token.NOT:
		v := fc.compileExpr(x.X)
		if v.isFloat() {
			fc.errf(x.Pos(), "! on floating value")
		}
		// r = (v == 0) via branch materialization.
		return fc.materializeBool(func(trueLab label) {
			fc.emit(ir.TEST, ir.NoReg, v.reg, ir.NoReg, 0)
			fc.jump(ir.JE, trueLab)
		})
	case token.INC, token.DEC:
		return fc.compileIncDec(x, true)
	case token.STAR:
		lv := fc.compileLValue(x)
		return fc.loadLValue(lv)
	case token.AMP:
		lv := fc.compileLValue(x.X)
		if lv.isReg {
			fc.errf(x.Pos(), "cannot take the address of a register variable")
		}
		r := fc.reg()
		fc.emit(ir.LEA, r, lv.base, lv.idx, lv.off)
		t := lv.typ
		t.Ptr++
		return value{reg: r, typ: t}
	}
	fc.errf(x.Pos(), "unsupported unary operator %s", x.Op)
	return value{}
}

// compileIncDec handles ++/-- in both value and statement contexts.
func (fc *funcCompiler) compileIncDec(x *ast.UnaryExpr, needValue bool) value {
	lv := fc.compileLValue(x.X)
	op := ir.INC
	if x.Op == token.DEC {
		op = ir.DEC
	}
	if lv.isReg && lv.typ.Kind != ast.Double {
		var old int32 = -1
		if needValue && x.Postfix {
			old = fc.reg()
			fc.emit(ir.MOVRR, old, lv.reg, ir.NoReg, 0)
		}
		fc.emit(op, lv.reg, lv.reg, ir.NoReg, 0)
		if needValue && x.Postfix {
			return value{reg: old, typ: lv.typ}
		}
		return value{reg: lv.reg, typ: lv.typ}
	}
	// Memory or floating location: load-modify-store.
	cur := fc.loadLValue(lv)
	var result value
	if cur.isFloat() {
		one := fc.reg()
		fc.emit(ir.MOVSDI, one, ir.NoReg, ir.NoReg, int64(math.Float64bits(1.0)))
		r := fc.reg()
		if x.Op == token.INC {
			fc.emit(ir.ADDSD, r, cur.reg, one, 0)
		} else {
			fc.emit(ir.SUBSD, r, cur.reg, one, 0)
		}
		result = value{reg: r, typ: ast.TypeDouble}
	} else {
		r := fc.reg()
		fc.emit(op, r, cur.reg, ir.NoReg, 0)
		result = value{reg: r, typ: cur.typ}
	}
	fc.storeLValue(lv, result)
	if needValue && x.Postfix {
		return cur
	}
	return result
}

func (fc *funcCompiler) compileBinary(x *ast.BinaryExpr) value {
	switch x.Op {
	case token.ANDAND, token.OROR:
		return fc.materializeBoolFromCond(x)
	}
	if x.Op.IsCmpOp() {
		return fc.materializeBoolFromCond(x)
	}
	a := fc.compileExpr(x.X)
	return fc.emitBinary(x, a, fc.compileExpr(x.Y))
}

// emitBinary emits the arithmetic of x on its compiled operands. It is
// apart from compileBinary so that the frame each level of a deep
// expression keeps on the stack stays small.
func (fc *funcCompiler) emitBinary(x *ast.BinaryExpr, a, b value) value {
	// Pointer arithmetic: ptr ± int.
	if a.typ.Ptr > 0 || b.typ.Ptr > 0 {
		if x.Op != token.PLUS && x.Op != token.MINUS {
			fc.errf(x.Pos(), "unsupported pointer operation %s", x.Op)
		}
		r := fc.reg()
		if x.Op == token.PLUS {
			fc.emit(ir.ADD, r, a.reg, b.reg, 0)
		} else {
			fc.emit(ir.SUB, r, a.reg, b.reg, 0)
		}
		t := a.typ
		if b.typ.Ptr > 0 {
			t = b.typ
		}
		return value{reg: r, typ: t}
	}

	if a.isFloat() || b.isFloat() {
		a = fc.coerce(a, ast.TypeDouble)
		b = fc.coerce(b, ast.TypeDouble)
		r := fc.reg()
		var op ir.Op
		switch x.Op {
		case token.PLUS:
			op = ir.ADDSD
		case token.MINUS:
			op = ir.SUBSD
		case token.STAR:
			op = ir.MULSD
		case token.SLASH:
			op = ir.DIVSD
		default:
			fc.errf(x.Pos(), "unsupported floating operator %s", x.Op)
		}
		fc.emit(op, r, a.reg, b.reg, 0)
		return value{reg: r, typ: ast.TypeDouble}
	}

	r := fc.reg()
	switch x.Op {
	case token.PLUS:
		fc.emit(ir.ADD, r, a.reg, b.reg, 0)
	case token.MINUS:
		fc.emit(ir.SUB, r, a.reg, b.reg, 0)
	case token.STAR:
		// Strength reduction: multiply by a power of two becomes a shift.
		if sh, ok := fc.powerOfTwo(x.Y); ok && !fc.g.opts.DisableOpt {
			fc.emit(ir.SHLI, r, a.reg, ir.NoReg, sh)
			return value{reg: r, typ: ast.TypeInt}
		}
		fc.emit(ir.IMUL, r, a.reg, b.reg, 0)
	case token.SLASH:
		if sh, ok := fc.powerOfTwo(x.Y); ok && !fc.g.opts.DisableOpt {
			fc.emit(ir.SARI, r, a.reg, ir.NoReg, sh)
			return value{reg: r, typ: ast.TypeInt}
		}
		fc.emit(ir.CDQ, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		fc.emit(ir.IDIV, r, a.reg, b.reg, 0)
	case token.PERCENT:
		fc.emit(ir.CDQ, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		fc.emit(ir.IREM, r, a.reg, b.reg, 0)
	default:
		fc.errf(x.Pos(), "unsupported integer operator %s", x.Op)
	}
	return value{reg: r, typ: ast.TypeInt}
}

func (fc *funcCompiler) powerOfTwo(e ast.Expr) (int64, bool) {
	c := fc.constOf(e)
	v := c.I
	if !c.IntOK() || v <= 1 {
		return 0, false
	}
	if v&(v-1) != 0 {
		return 0, false
	}
	sh := int64(0)
	for v > 1 {
		v >>= 1
		sh++
	}
	return sh, true
}

func (fc *funcCompiler) compileAssign(x *ast.AssignExpr) value {
	lv := fc.compileLValue(x.LHS)
	var rhs value
	if x.Op == token.ASSIGN {
		rhs = fc.compileExpr(x.RHS)
	} else {
		cur := fc.loadLValue(lv)
		r := fc.compileExpr(x.RHS)
		var opTok token.Kind
		switch x.Op {
		case token.PLUSEQ:
			opTok = token.PLUS
		case token.MINUSEQ:
			opTok = token.MINUS
		case token.STAREQ:
			opTok = token.STAR
		case token.SLASHEQ:
			opTok = token.SLASH
		}
		rhs = fc.applyBinOp(opTok, cur, r, x.Pos())
	}
	fc.storeLValue(lv, rhs)
	return rhs
}

// applyBinOp emits cur OP r with numeric promotion.
func (fc *funcCompiler) applyBinOp(op token.Kind, a, b value, pos token.Pos) value {
	if a.isFloat() || b.isFloat() {
		a = fc.coerce(a, ast.TypeDouble)
		b = fc.coerce(b, ast.TypeDouble)
		r := fc.reg()
		var o ir.Op
		switch op {
		case token.PLUS:
			o = ir.ADDSD
		case token.MINUS:
			o = ir.SUBSD
		case token.STAR:
			o = ir.MULSD
		case token.SLASH:
			o = ir.DIVSD
		default:
			fc.errf(pos, "unsupported compound operator")
		}
		fc.emit(o, r, a.reg, b.reg, 0)
		return value{reg: r, typ: ast.TypeDouble}
	}
	r := fc.reg()
	switch op {
	case token.PLUS:
		fc.emit(ir.ADD, r, a.reg, b.reg, 0)
	case token.MINUS:
		fc.emit(ir.SUB, r, a.reg, b.reg, 0)
	case token.STAR:
		fc.emit(ir.IMUL, r, a.reg, b.reg, 0)
	case token.SLASH:
		fc.emit(ir.CDQ, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		fc.emit(ir.IDIV, r, a.reg, b.reg, 0)
	default:
		fc.errf(pos, "unsupported compound operator")
	}
	return value{reg: r, typ: ast.TypeInt}
}

func (fc *funcCompiler) compileTernary(x *ast.CondExpr) value {
	elseLab := fc.newLabel()
	endLab := fc.newLabel()
	fc.compileCond(x.Cond, elseLab, false)
	a := fc.compileExpr(x.Then)
	r := fc.reg()
	resF := a.isFloat() || fc.constOf(x.Else).HasFloat()
	if resF {
		a = fc.coerce(a, ast.TypeDouble)
	}
	fc.move(r, value{reg: a.reg, typ: a.typ})
	fc.jump(ir.JMP, endLab)
	fc.bind(elseLab)
	b := fc.compileExpr(x.Else)
	if resF {
		b = fc.coerce(b, ast.TypeDouble)
	}
	fc.move(r, value{reg: b.reg, typ: b.typ})
	fc.bind(endLab)
	t := a.typ
	if resF {
		t = ast.TypeDouble
	}
	return value{reg: r, typ: t}
}

// materializeBool produces 0/1 from a branch generator that jumps to
// trueLab when the condition holds.
func (fc *funcCompiler) materializeBool(gen func(trueLab label)) value {
	trueLab := fc.newLabel()
	endLab := fc.newLabel()
	r := fc.reg()
	gen(trueLab)
	fc.emit(ir.MOVRI, r, ir.NoReg, ir.NoReg, 0)
	fc.jump(ir.JMP, endLab)
	fc.bind(trueLab)
	fc.emit(ir.MOVRI, r, ir.NoReg, ir.NoReg, 1)
	fc.bind(endLab)
	return value{reg: r, typ: ast.TypeBool}
}

func (fc *funcCompiler) materializeBoolFromCond(e ast.Expr) value {
	return fc.materializeBool(func(trueLab label) {
		fc.compileCondJumpTrue(e, trueLab)
	})
}

// ---------------------------------------------------------------------------
// Conditions

// compileCond emits branch code: when jumpIfTrue is false, control jumps to
// target when the condition is FALSE (fallthrough = condition holds).
func (fc *funcCompiler) compileCond(e ast.Expr, target label, jumpIfTrue bool) {
	if jumpIfTrue {
		fc.compileCondJumpTrue(e, target)
	} else {
		fc.compileCondJumpFalse(e, target)
	}
}

func (fc *funcCompiler) compileCondJumpFalse(e ast.Expr, falseLab label) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		fc.compileCondJumpFalse(x.X, falseLab)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			fc.compileCondJumpTrue(x.X, falseLab)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ANDAND:
			fc.compileCondJumpFalse(x.X, falseLab)
			fc.compileCondJumpFalse(x.Y, falseLab)
			return
		case token.OROR:
			okLab := fc.newLabel()
			fc.compileCondJumpTrue(x.X, okLab)
			fc.compileCondJumpFalse(x.Y, falseLab)
			fc.bind(okLab)
			return
		}
		if x.Op.IsCmpOp() {
			fc.emitCompare(x, falseLab, true)
			return
		}
	}
	v := fc.compileExpr(e)
	if v.isFloat() {
		fc.errf(e.Pos(), "floating value used as a condition")
	}
	fc.emit(ir.TEST, ir.NoReg, v.reg, ir.NoReg, 0)
	fc.jump(ir.JE, falseLab)
}

func (fc *funcCompiler) compileCondJumpTrue(e ast.Expr, trueLab label) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		fc.compileCondJumpTrue(x.X, trueLab)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			fc.compileCondJumpFalse(x.X, trueLab)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ANDAND:
			skip := fc.newLabel()
			fc.compileCondJumpFalse(x.X, skip)
			fc.compileCondJumpTrue(x.Y, trueLab)
			fc.bind(skip)
			return
		case token.OROR:
			fc.compileCondJumpTrue(x.X, trueLab)
			fc.compileCondJumpTrue(x.Y, trueLab)
			return
		}
		if x.Op.IsCmpOp() {
			fc.emitCompare(x, trueLab, false)
			return
		}
	}
	v := fc.compileExpr(e)
	if v.isFloat() {
		fc.errf(e.Pos(), "floating value used as a condition")
	}
	fc.emit(ir.TEST, ir.NoReg, v.reg, ir.NoReg, 0)
	fc.jump(ir.JNE, trueLab)
}

// emitCompare emits CMP/UCOMISD plus the (possibly inverted) conditional
// jump for a comparison node.
func (fc *funcCompiler) emitCompare(x *ast.BinaryExpr, target label, invert bool) {
	a := fc.compileExpr(x.X)
	b := fc.compileExpr(x.Y)
	isF := a.isFloat() || b.isFloat()
	if isF {
		a = fc.coerce(a, ast.TypeDouble)
		b = fc.coerce(b, ast.TypeDouble)
		fc.emit(ir.UCOMISD, ir.NoReg, a.reg, b.reg, 0)
	} else {
		fc.emit(ir.CMP, ir.NoReg, a.reg, b.reg, 0)
	}
	var op ir.Op
	switch x.Op {
	case token.EQ:
		op = ir.JE
	case token.NEQ:
		op = ir.JNE
	case token.LT:
		op = ir.JL
	case token.LEQ:
		op = ir.JLE
	case token.GT:
		op = ir.JG
	case token.GEQ:
		op = ir.JGE
	}
	if invert {
		op = invertJump(op)
	}
	fc.jump(op, target)
}

func invertJump(op ir.Op) ir.Op {
	switch op {
	case ir.JE:
		return ir.JNE
	case ir.JNE:
		return ir.JE
	case ir.JL:
		return ir.JGE
	case ir.JLE:
		return ir.JG
	case ir.JG:
		return ir.JLE
	case ir.JGE:
		return ir.JL
	}
	return op
}

// ---------------------------------------------------------------------------
// Calls

// compileCall compiles a call; discardResult suppresses GETRET for
// statement-context calls. The bool result reports whether a value was
// produced.
func (fc *funcCompiler) compileCall(x *ast.CallExpr, discardResult bool) (value, bool) {
	callee, err := fc.g.prog.ResolveCall(x, func(e ast.Expr) (string, bool) {
		return fc.classOf(e)
	})
	if err != nil {
		panic(&Error{Pos: x.Pos(), Msg: err.Error()})
	}
	fi := fc.g.prog.Funcs[callee]

	// Evaluate the receiver (for method calls) and all arguments into
	// registers first, then stage them; nested calls stay well-bracketed.
	var argVals []value
	if fi.Class != nil {
		var recvReg int32 = -1
		switch fun := x.Fun.(type) {
		case *ast.MemberExpr:
			rv := fc.compileExpr(fun.X)
			recvReg = rv.reg
		default:
			// operator() applied to a class-typed expression.
			rv := fc.compileExpr(x.Fun)
			recvReg = rv.reg
		}
		argVals = append(argVals, value{reg: recvReg, typ: ast.Type{Kind: ast.Class, ClassName: fi.Class.Name}})
	}
	params := fi.Decl.Params
	if len(x.Args) != len(params) {
		fc.errf(x.Pos(), "call to %q with %d args, want %d", callee, len(x.Args), len(params))
	}
	for i, a := range x.Args {
		v := fc.compileExpr(a)
		v = fc.coerce(v, params[i].Type)
		argVals = append(argVals, v)
	}
	for _, v := range argVals {
		if v.isFloat() {
			fc.emit(ir.ARGF, ir.NoReg, v.reg, ir.NoReg, 0)
		} else {
			fc.emit(ir.ARGI, ir.NoReg, v.reg, ir.NoReg, 0)
		}
	}
	idx := fc.emit(ir.CALL, ir.NoReg, ir.NoReg, ir.NoReg, 0)
	fc.g.callNames[callKey{fnIdx: fc.g.curFnIdx, instr: idx}] = callee

	ret := fi.Decl.RetType
	if ret.Kind == ast.Void {
		return value{}, false
	}
	if discardResult {
		return value{}, true
	}
	r := fc.reg()
	if ret.Kind == ast.Double && ret.Ptr == 0 {
		fc.emit(ir.GETRETF, r, ir.NoReg, ir.NoReg, 0)
	} else {
		fc.emit(ir.GETRETI, r, ir.NoReg, ir.NoReg, 0)
	}
	return value{reg: r, typ: ret}, true
}
