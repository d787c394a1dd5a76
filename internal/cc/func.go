package cc

import (
	"fmt"

	"mira/internal/ast"
	"mira/internal/ir"
	"mira/internal/objfile"
	"mira/internal/sema"
	"mira/internal/token"
)

// value is an expression result: a virtual register plus its static type.
// For arrays, objects, and pointers the register holds a word address.
type value struct {
	reg int32
	typ ast.Type
}

func (v value) isFloat() bool { return v.typ.Ptr == 0 && v.typ.Kind == ast.Double }

// local binds a name in scope.
type local struct {
	typ     ast.Type // scalar type; element type for arrays; Class for objects
	reg     int32    // scalar value register, or base address register
	isArr   bool
	dimRegs []int32 // registers holding each dimension (for locally declared arrays)
	isObj   bool
}

type label int32

type fixup struct {
	instr int
	lab   label
}

type loopCtx struct {
	contLab  label
	breakLab label
}

type funcCompiler struct {
	g       *globalCtx
	fi      *sema.FuncInfo
	instrs  []ir.Instr
	tags    []token.Pos
	curPos  token.Pos
	nextReg int32
	scopes  []map[string]*local
	labels  []int // label -> instruction index (-1 unbound)
	fixups  []fixup
	loops   []loopCtx
	thisReg int32 // methods only; -1 otherwise
	// licm holds the subexpressions hoisted into the preheaders of the
	// loops being compiled, outermost loop first, and licmNewest indexes
	// it by exprHash. Entries from licmVisible up are candidates still
	// being compiled, which no expression may reuse yet.
	licm        []licmEntry
	licmNewest  map[uint64]int
	licmVisible int
	// exprDepth counts the compileExpr calls in progress; memo holds what
	// constOf memoized and memoStack is its scratch (see memoDepth).
	exprDepth int
	memo      map[ast.Expr]nodeMemo
	memoStack []hashHeight
}

func newFuncCompiler(g *globalCtx, fi *sema.FuncInfo) *funcCompiler {
	return &funcCompiler{g: g, fi: fi, thisReg: -1}
}

func (fc *funcCompiler) errf(pos token.Pos, format string, args ...any) {
	panic(&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Emission helpers

func (fc *funcCompiler) setPos(p token.Pos) {
	if p.Valid() {
		fc.curPos = p
	}
}

func (fc *funcCompiler) emit(op ir.Op, rd, rs1, rs2 int32, imm int64) int {
	fc.instrs = append(fc.instrs, ir.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
	fc.tags = append(fc.tags, fc.curPos)
	return len(fc.instrs) - 1
}

func (fc *funcCompiler) reg() int32 {
	r := fc.nextReg
	fc.nextReg++
	return r
}

func (fc *funcCompiler) newLabel() label {
	fc.labels = append(fc.labels, -1)
	return label(len(fc.labels) - 1)
}

func (fc *funcCompiler) bind(l label) {
	fc.labels[l] = len(fc.instrs)
}

func (fc *funcCompiler) jump(op ir.Op, l label) {
	idx := fc.emit(op, ir.NoReg, ir.NoReg, ir.NoReg, 0)
	fc.fixups = append(fc.fixups, fixup{instr: idx, lab: l})
}

func (fc *funcCompiler) finalize() {
	for _, f := range fc.fixups {
		target := fc.labels[f.lab]
		if target < 0 {
			panic(fmt.Sprintf("cc: unbound label %d in %s", f.lab, fc.fi.QName))
		}
		fc.instrs[f.instr].Imm = int64(target)
	}
}

// ---------------------------------------------------------------------------
// Scopes

func (fc *funcCompiler) pushScope() { fc.scopes = append(fc.scopes, map[string]*local{}) }
func (fc *funcCompiler) popScope()  { fc.scopes = fc.scopes[:len(fc.scopes)-1] }

func (fc *funcCompiler) define(name string, l *local) {
	fc.scopes[len(fc.scopes)-1][name] = l
}

func (fc *funcCompiler) lookup(name string) (*local, bool) {
	for i := len(fc.scopes) - 1; i >= 0; i-- {
		if l, ok := fc.scopes[i][name]; ok {
			return l, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Function compilation

func (fc *funcCompiler) paramKinds() []objfile.ParamKind {
	var kinds []objfile.ParamKind
	if fc.fi.Class != nil {
		kinds = append(kinds, objfile.KindInt) // this
	}
	for _, p := range fc.fi.Decl.Params {
		kinds = append(kinds, paramKind(p.Type))
	}
	return kinds
}

func (fc *funcCompiler) compile() {
	fd := fc.fi.Decl
	fc.setPos(fd.Pos())
	fc.pushScope()

	// Parameters occupy the first registers in convention order.
	if fc.fi.Class != nil {
		fc.thisReg = fc.reg()
	}
	for _, p := range fd.Params {
		r := fc.reg()
		l := &local{typ: p.Type, reg: r}
		if p.Type.Ptr > 0 {
			l.isArr = true
			l.typ = p.Type.Elem()
			l.typ.Ptr = 0
		}
		fc.define(p.Name, l)
	}

	// Prologue (runtime environment; tagged to the function header line).
	fc.emit(ir.PUSH, ir.NoReg, ir.NoReg, ir.NoReg, 0)

	fc.compileBlock(fd.Body)

	// Implicit return for void functions (and a safety net otherwise).
	fc.setPos(fd.Pos())
	if len(fc.instrs) == 0 || !fc.instrs[len(fc.instrs)-1].IsReturn() {
		fc.emitEpilogueReturn(nil)
	}
	fc.popScope()
	fc.finalize()
}

func (fc *funcCompiler) emitEpilogueReturn(v *value) {
	fc.emit(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
	switch {
	case v == nil:
		fc.emit(ir.RETV, ir.NoReg, ir.NoReg, ir.NoReg, 0)
	case v.isFloat():
		fc.emit(ir.RETF, ir.NoReg, v.reg, ir.NoReg, 0)
	default:
		fc.emit(ir.RETI, ir.NoReg, v.reg, ir.NoReg, 0)
	}
}

// ---------------------------------------------------------------------------
// Statements

func (fc *funcCompiler) compileBlock(b *ast.BlockStmt) {
	fc.pushScope()
	for _, s := range b.Stmts {
		fc.compileStmt(s)
	}
	fc.popScope()
}

func (fc *funcCompiler) compileStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		fc.compileBlock(st)
	case *ast.EmptyStmt:
	case *ast.VarDecl:
		fc.compileVarDecl(st)
	case *ast.ExprStmt:
		fc.setPos(st.Pos())
		fc.compileExprStmt(st.X)
	case *ast.IfStmt:
		fc.compileIf(st)
	case *ast.ForStmt:
		fc.compileFor(st)
	case *ast.WhileStmt:
		fc.compileWhile(st)
	case *ast.ReturnStmt:
		fc.setPos(st.Pos())
		if st.X != nil {
			v := fc.compileExpr(st.X)
			v = fc.coerce(v, fc.fi.Decl.RetType)
			fc.emitEpilogueReturn(&v)
		} else {
			fc.emitEpilogueReturn(nil)
		}
	case *ast.BreakStmt:
		fc.setPos(st.Pos())
		if len(fc.loops) == 0 {
			fc.errf(st.Pos(), "break outside loop")
		}
		fc.jump(ir.JMP, fc.loops[len(fc.loops)-1].breakLab)
	case *ast.ContinueStmt:
		fc.setPos(st.Pos())
		if len(fc.loops) == 0 {
			fc.errf(st.Pos(), "continue outside loop")
		}
		fc.jump(ir.JMP, fc.loops[len(fc.loops)-1].contLab)
	default:
		fc.errf(s.Pos(), "unsupported statement %T", s)
	}
}

func (fc *funcCompiler) compileVarDecl(vd *ast.VarDecl) {
	fc.setPos(vd.Pos())
	for _, d := range vd.Names {
		switch {
		case vd.Type.Kind == ast.Class && vd.Type.Ptr == 0 && len(d.Dims) == 0:
			// Object: allocate class-size words.
			ci, ok := fc.g.prog.Classes[vd.Type.ClassName]
			if !ok {
				fc.errf(d.Pos(), "unknown class %q", vd.Type.ClassName)
			}
			size := fc.reg()
			fc.emit(ir.MOVRI, size, ir.NoReg, ir.NoReg, ci.Size)
			base := fc.reg()
			fc.emit(ir.ALLOC, base, size, ir.NoReg, 0)
			fc.define(d.Name, &local{typ: vd.Type, reg: base, isObj: true})
			if d.Init != nil {
				fc.errf(d.Pos(), "object initializers are not supported")
			}
		case len(d.Dims) > 0:
			// VLA-style array: compute dims, allocate.
			var dimRegs []int32
			size := int32(ir.NoReg)
			for _, dim := range d.Dims {
				dv := fc.compileExpr(dim)
				if dv.isFloat() {
					fc.errf(dim.Pos(), "array dimension must be integral")
				}
				dimRegs = append(dimRegs, dv.reg)
				if size == ir.NoReg {
					size = dv.reg
				} else {
					nr := fc.reg()
					fc.emit(ir.IMUL, nr, size, dv.reg, 0)
					size = nr
				}
			}
			base := fc.reg()
			fc.emit(ir.ALLOC, base, size, ir.NoReg, 0)
			elem := vd.Type
			fc.define(d.Name, &local{typ: elem, reg: base, isArr: true, dimRegs: dimRegs})
			if d.Init != nil {
				fc.errf(d.Pos(), "array initializers are not supported")
			}
		default:
			// Scalar (possibly pointer-typed) local lives in a register.
			r := fc.reg()
			l := &local{typ: vd.Type, reg: r}
			if vd.Type.Ptr > 0 {
				l.isArr = true
				l.typ = vd.Type.Elem()
			}
			fc.define(d.Name, l)
			if d.Init != nil {
				v := fc.compileExpr(d.Init)
				v = fc.coerce(v, vd.Type)
				fc.move(r, v)
			}
		}
	}
}

// move copies v into register rd with the mov flavor matching its type.
func (fc *funcCompiler) move(rd int32, v value) {
	if rd == v.reg {
		return
	}
	if v.isFloat() {
		fc.emit(ir.MOVSDRR, rd, v.reg, ir.NoReg, 0)
	} else {
		fc.emit(ir.MOVRR, rd, v.reg, ir.NoReg, 0)
	}
}

func (fc *funcCompiler) compileIf(st *ast.IfStmt) {
	fc.setPos(st.Cond.Pos())
	elseLab := fc.newLabel()
	endLab := fc.newLabel()
	fc.compileCond(st.Cond, elseLab, false)
	fc.compileStmt(st.Then)
	if st.Else != nil {
		if !fc.lastIsTerminator() {
			// Tag the jump over the else branch to the then branch's
			// position so the bridge attributes it to taken-branch count.
			fc.setPos(st.Then.Pos())
			fc.jump(ir.JMP, endLab)
		}
		fc.bind(elseLab)
		fc.compileStmt(st.Else)
		fc.bind(endLab)
	} else {
		fc.bind(elseLab)
		fc.bind(endLab)
	}
}

func (fc *funcCompiler) lastIsTerminator() bool {
	if len(fc.instrs) == 0 {
		return false
	}
	last := fc.instrs[len(fc.instrs)-1]
	return last.IsReturn() || last.Op == ir.JMP
}

func (fc *funcCompiler) compileFor(st *ast.ForStmt) {
	fc.pushScope()
	if st.Init != nil {
		switch init := st.Init.(type) {
		case *ast.VarDecl:
			fc.compileVarDecl(init)
		case *ast.ExprStmt:
			fc.setPos(init.Pos())
			fc.compileExprStmt(init.X)
		case *ast.EmptyStmt:
		default:
			fc.errf(st.Pos(), "unsupported for-init %T", st.Init)
		}
	}

	// LICM: hoist loop-invariant floating-point subexpressions into the
	// preheader, tagged at the init clause position.
	outerHoisted := len(fc.licm)
	if !fc.g.opts.DisableOpt {
		initPos := st.Pos()
		if st.Init != nil {
			initPos = st.Init.Pos()
		}
		fc.hoistInvariants(st, initPos)
	}

	condLab := fc.newLabel()
	postLab := fc.newLabel()
	endLab := fc.newLabel()
	fc.bind(condLab)
	if st.Cond != nil {
		fc.setPos(st.Cond.Pos())
		fc.compileCond(st.Cond, endLab, false)
	}
	fc.loops = append(fc.loops, loopCtx{contLab: postLab, breakLab: endLab})
	fc.compileStmt(st.Body)
	fc.loops = fc.loops[:len(fc.loops)-1]
	fc.bind(postLab)
	if st.Post != nil {
		fc.setPos(st.Post.Pos())
		fc.compileExprStmt(st.Post)
		fc.jump(ir.JMP, condLab) // back edge shares the post position
	} else {
		if st.Cond != nil {
			fc.setPos(st.Cond.Pos())
		}
		fc.jump(ir.JMP, condLab)
	}
	fc.bind(endLab)
	fc.popHoisted(outerHoisted)
	fc.popScope()
}

func (fc *funcCompiler) compileWhile(st *ast.WhileStmt) {
	condLab := fc.newLabel()
	endLab := fc.newLabel()
	fc.bind(condLab)
	fc.setPos(st.Cond.Pos())
	fc.compileCond(st.Cond, endLab, false)
	fc.loops = append(fc.loops, loopCtx{contLab: condLab, breakLab: endLab})
	fc.compileStmt(st.Body)
	fc.loops = fc.loops[:len(fc.loops)-1]
	fc.setPos(st.Cond.Pos())
	fc.jump(ir.JMP, condLab)
	fc.bind(endLab)
}

// compileExprStmt compiles an expression for side effects, avoiding the
// value copies a general expression context would produce.
func (fc *funcCompiler) compileExprStmt(e ast.Expr) {
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.INC || x.Op == token.DEC {
			fc.compileIncDec(x, false)
			return
		}
	case *ast.CallExpr:
		fc.compileCall(x, true)
		return
	case *ast.AssignExpr:
		fc.compileAssign(x)
		return
	}
	fc.compileExpr(e)
}
