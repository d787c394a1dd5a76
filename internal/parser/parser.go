// Package parser implements the recursive-descent MiniC parser.
//
// Together with internal/lexer it forms Mira's Input Processor front half
// (paper Sec. III-A1): source text in, source AST out, with user
// annotations attached to the statements they precede.
//
// The parser pulls tokens from the lexer as it goes and stops at the
// first error, so a refused source costs no more lexing than the prefix
// read up to that error. ParseFile reports the first error in source
// order: a lexical error met at or before the position of the parse
// error wins; a lexical error later in the source is never scanned.
package parser

import (
	"fmt"
	"strconv"

	"mira/internal/ast"
	"mira/internal/lexer"
	"mira/internal/token"
)

// Error is a parse error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Every stage after the parser recurses once per level of statement
// nesting and once per level of an expression tree. A goroutine stack
// that passes Go's 1 GB limit kills the whole process, and no recover
// can catch that, so the parser refuses sources deeper than these bounds
// with a positioned error.
const (
	// MaxNesting bounds how deeply statements nest, and how deeply
	// sub-expressions (parenthesized, bracketed, call arguments,
	// assignment right-hand sides, ternary arms) and unary operators
	// nest inside one another.
	MaxNesting = 4096
	// MaxExprHeight bounds the height of an expression tree, which a
	// long operator chain such as n+n+...+n grows without nesting.
	MaxExprHeight = 1 << 17
)

// The parser keeps only the current token, one lookahead and the end of
// the last token consumed, so a source refused at a bound costs no token
// buffer of its own size. The lexer scans straight into tok (or ahead),
// and callers read the fields they need before consuming it, so no token
// value is copied on the common path.
type parser struct {
	src      string
	lx       *lexer.Lexer
	tok      token.Token // current token
	ahead    token.Token // the token after tok, when hasAhead
	hasAhead bool
	prevEnd  int // End of the last token consumed
	file     *ast.File
	classes  map[string]bool // class names seen so far, for type lookahead
	depth    int             // current nesting, bounded by MaxNesting
	h        int             // height of the expression parsed last
	// stmts holds the statements of every open block, innermost last;
	// a block copies its own run out, at its exact length, when it ends.
	stmts []ast.Stmt
	// The commonest nodes come from chunks.
	idents chunk[ast.Ident]
	ints   chunk[ast.IntLit]
	floats chunk[ast.FloatLit]
	exprs  chunk[ast.ExprStmt]
}

// chunkLen is how many nodes one chunk allocation holds: 16 nodes of at
// most 32 bytes fit a 512-byte size class, the largest that carries no
// malloc header, so a chunk wastes nothing but its unused tail.
const chunkLen = 16

// chunk hands out nodes of one type from arrays of chunkLen, one
// allocation per chunk. A chunk lives as long as any of its nodes, so
// only two kinds of node come from chunks: leaves, which point at
// nothing but source text, and expression statements, which nothing
// outside the tree points at. An expression that a model keeps (a
// statement's right-hand side, a loop condition) is allocated alone, so
// it never holds its neighbours' subtrees alive.
type chunk[T any] []T

func (c *chunk[T]) new() *T {
	if len(*c) == 0 {
		*c = make([]T, chunkLen)
	}
	x := &(*c)[0]
	*c = (*c)[1:]
	return x
}

// ParseFile parses MiniC source text into a File.
func ParseFile(name, src string) (*ast.File, error) {
	file, _, err := parseLexed(name, src)
	return file, err
}

// parseLexed is ParseFile, also returning the lexer so tests can see how
// much of the source was read.
func parseLexed(name, src string) (*ast.File, *lexer.Lexer, error) {
	lx := lexer.New(src)
	p := &parser{src: src, lx: lx, classes: map[string]bool{}}
	lx.Scan(&p.tok)
	p.file = &ast.File{Name: name, FilePos: token.Pos{Line: 1, Col: 1}}
	var perr *Error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(*Error); ok {
					perr = e
					return
				}
				panic(r)
			}
		}()
		p.parseProgram()
	}()
	if errs := lx.Errors(); len(errs) > 0 && (perr == nil || !perr.Pos.Before(errs[0].Pos)) {
		return nil, lx, errs[0]
	}
	if perr != nil {
		return nil, lx, perr
	}
	return p.file, lx, nil
}

func (p *parser) errf(pos token.Pos, format string, args ...any) {
	panic(&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// enter opens one nesting level at the current token; the caller closes
// it with p.depth--. An error unwinds the whole parse, so nothing closes
// levels on that path.
func (p *parser) enter() {
	p.depth++
	if p.depth > MaxNesting {
		p.errf(p.tok.Pos, "nesting deeper than %d levels", MaxNesting)
	}
}

// grow returns the height of a node over children at most h high,
// positioned at pos for the error when it passes MaxExprHeight.
func (p *parser) grow(h int, pos token.Pos) int {
	if h >= MaxExprHeight {
		p.errf(pos, "expression deeper than %d levels", MaxExprHeight)
	}
	return h + 1
}

// peekKind returns the kind of the token after the current one.
func (p *parser) peekKind() token.Kind {
	if p.tok.Kind == token.EOF {
		return token.EOF
	}
	if !p.hasAhead {
		p.lx.Scan(&p.ahead)
		p.hasAhead = true
	}
	return p.ahead.Kind
}

// next consumes the current token.
func (p *parser) next() {
	if p.tok.Kind == token.EOF {
		return
	}
	p.prevEnd = p.tok.End
	if p.hasAhead {
		p.tok, p.hasAhead = p.ahead, false
	} else {
		p.lx.Scan(&p.tok)
	}
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// expect consumes a token of kind k and returns its position.
func (p *parser) expect(k token.Kind) token.Pos {
	if p.tok.Kind != k {
		p.errf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	pos := p.tok.Pos
	p.next()
	return pos
}

// expectIdent consumes an identifier and returns its name and position.
func (p *parser) expectIdent() (string, token.Pos) {
	if p.tok.Kind != token.IDENT {
		p.errf(p.tok.Pos, "expected %s, found %s", token.IDENT, p.tok)
	}
	name, pos := p.tok.Lit, p.tok.Pos
	p.next()
	return name, pos
}

// source returns the text from the token at byte offset off and position
// pos through the last token consumed, anchored at pos.
func (p *parser) source(off int, pos token.Pos) ast.Source {
	return ast.Source{Pos: pos, Text: p.src[off:p.prevEnd]}
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) parseProgram() {
	for p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.PRAGMA:
			// Top-level pragmas (include guards, omp, ...) are ignored.
			p.next()
		case token.KWCLASS, token.KWSTRUCT:
			p.file.Decls = append(p.file.Decls, p.parseClass())
		case token.KWEXTERN:
			p.file.Decls = append(p.file.Decls, p.parseExtern())
		default:
			p.file.Decls = append(p.file.Decls, p.parseFuncOrVar(""))
		}
	}
}

func (p *parser) parseExtern() ast.Decl {
	off := p.tok.Off
	kw := p.expect(token.KWEXTERN)
	ret := p.parseType()
	name, _ := p.expectIdent()
	fd := &ast.FuncDecl{
		Name:     name,
		RetType:  ret,
		IsExtern: true,
		FuncPos:  kw,
	}
	p.expect(token.LPAREN)
	fd.Params = p.parseParams()
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	fd.Src = p.source(off, kw)
	return fd
}

func (p *parser) parseClass() *ast.ClassDecl {
	kw := p.tok.Pos // class or struct
	p.next()
	name, _ := p.expectIdent()
	cd := &ast.ClassDecl{Name: name, ClassPos: kw}
	p.classes[name] = true
	p.expect(token.LBRACE)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.KWPUBLIC, token.KWPRIVATE:
			p.next()
			p.expect(token.COLON)
		default:
			d := p.parseFuncOrVar(name)
			switch x := d.(type) {
			case *ast.FuncDecl:
				cd.Methods = append(cd.Methods, x)
			case *ast.VarDecl:
				cd.Fields = append(cd.Fields, x)
			}
		}
	}
	p.expect(token.RBRACE)
	p.accept(token.SEMI)
	return cd
}

// parseFuncOrVar parses either a function/method definition or a variable
// declaration; className is non-empty when parsing inside a class body.
func (p *parser) parseFuncOrVar(className string) ast.Decl {
	firstOff, firstPos := p.tok.Off, p.tok.Pos
	isConst := p.accept(token.KWCONST)
	p.accept(token.KWSTATIC)
	if !isConst {
		isConst = p.accept(token.KWCONST)
	}
	start := p.tok.Pos
	typ := p.parseType()

	// operator() method.
	if p.tok.Kind == token.KWOPERATOR {
		op := p.tok.Pos
		p.next()
		p.expect(token.LPAREN)
		p.expect(token.RPAREN)
		fd := &ast.FuncDecl{
			Name:       "operator()",
			ClassName:  className,
			RetType:    typ,
			IsOperator: true,
			FuncPos:    op,
		}
		p.expect(token.LPAREN)
		fd.Params = p.parseParams()
		p.expect(token.RPAREN)
		p.accept(token.KWCONST)
		fd.Body = p.parseBlock()
		fd.Src = p.source(firstOff, firstPos)
		return fd
	}

	name, namePos := p.expectIdent()

	// Out-of-class method definition: Type Class::name(...).
	if p.tok.Kind == token.SCOPE {
		p.next()
		className = name
		if !p.classes[className] {
			p.errf(namePos, "undefined class %q in qualified name", className)
		}
		name, namePos = p.expectIdent()
	}

	if p.tok.Kind == token.LPAREN {
		fd := &ast.FuncDecl{
			Name:      name,
			ClassName: className,
			RetType:   typ,
			FuncPos:   start,
		}
		p.expect(token.LPAREN)
		fd.Params = p.parseParams()
		p.expect(token.RPAREN)
		p.accept(token.KWCONST)
		if p.accept(token.SEMI) {
			// Forward declaration; treat as extern-like prototype only if no
			// definition follows. The sema layer resolves duplicates.
			fd.Src = p.source(firstOff, firstPos)
			return fd
		}
		fd.Body = p.parseBlock()
		fd.Src = p.source(firstOff, firstPos)
		return fd
	}

	// Variable declaration.
	vd := &ast.VarDecl{Type: typ, IsConst: isConst, DeclPos: start}
	vd.Names = append(vd.Names, p.parseDeclarator(name, namePos))
	for p.accept(token.COMMA) {
		vd.Names = append(vd.Names, p.parseDeclarator(p.expectIdent()))
	}
	p.expect(token.SEMI)
	vd.Src = p.source(firstOff, firstPos)
	return vd
}

func (p *parser) parseDeclarator(name string, pos token.Pos) *ast.Declarator {
	d := &ast.Declarator{Name: name, NamePos: pos}
	for p.tok.Kind == token.LBRACKET {
		p.next()
		d.Dims = append(d.Dims, p.parseExpr())
		p.expect(token.RBRACKET)
	}
	if p.accept(token.ASSIGN) {
		d.Init = p.parseAssignExpr()
	}
	return d
}

func (p *parser) parseParams() []*ast.Param {
	var params []*ast.Param
	if p.tok.Kind == token.RPAREN {
		return params
	}
	if p.tok.Kind == token.KWVOID && p.peekKind() == token.RPAREN {
		p.next()
		return params
	}
	for {
		p.accept(token.KWCONST)
		typ := p.parseType()
		// Reference parameters (T &x) are treated as pointers.
		if p.accept(token.AMP) {
			typ.Ptr++
		}
		name, pos := p.expectIdent()
		prm := &ast.Param{Name: name, Type: typ, ParamPos: pos}
		for p.tok.Kind == token.LBRACKET {
			p.next()
			// Parameter array dimensions decay to pointers; sizes ignored.
			if p.tok.Kind != token.RBRACKET {
				p.parseExpr()
			}
			p.expect(token.RBRACKET)
			prm.IsArray = true
			prm.Type.Ptr++
		}
		params = append(params, prm)
		if !p.accept(token.COMMA) {
			return params
		}
	}
}

func (p *parser) parseType() ast.Type {
	var typ ast.Type
	switch p.tok.Kind {
	case token.KWUNSIGNED:
		p.next()
		if p.tok.Kind == token.KWINT || p.tok.Kind == token.KWLONG {
			p.next()
		}
		typ = ast.TypeInt
	case token.KWINT, token.KWLONG, token.KWCHAR:
		p.next()
		// "long long", "long int" collapse.
		for p.tok.Kind == token.KWLONG || p.tok.Kind == token.KWINT {
			p.next()
		}
		typ = ast.TypeInt
	case token.KWDOUBLE, token.KWFLOAT:
		p.next()
		typ = ast.TypeDouble
	case token.KWBOOL:
		p.next()
		typ = ast.TypeBool
	case token.KWVOID:
		p.next()
		typ = ast.TypeVoid
	case token.IDENT:
		name := p.tok.Lit
		if !p.classes[name] {
			p.errf(p.tok.Pos, "unknown type %q", name)
		}
		p.next()
		typ = ast.Type{Kind: ast.Class, ClassName: name}
	default:
		p.errf(p.tok.Pos, "expected type, found %s", p.tok)
	}
	for p.accept(token.STAR) {
		typ.Ptr++
	}
	return typ
}

// startsType reports whether the token stream at the current position looks
// like the start of a declaration.
func (p *parser) startsType() bool {
	k := p.tok.Kind
	if k.IsType() || k == token.KWCONST || k == token.KWSTATIC {
		return true
	}
	if k == token.IDENT && p.classes[p.tok.Lit] {
		// "A a;" or "A *a;" — identifier followed by identifier or star.
		n := p.peekKind()
		return n == token.IDENT || n == token.STAR
	}
	return false
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() *ast.BlockStmt {
	blk := &ast.BlockStmt{BracePos: p.expect(token.LBRACE)}
	base := len(p.stmts)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		st := p.parseStmt()
		p.stmts = append(p.stmts, st)
	}
	p.expect(token.RBRACE)
	if n := len(p.stmts) - base; n > 0 {
		blk.Stmts = make([]ast.Stmt, n)
		copy(blk.Stmts, p.stmts[base:])
		clear(p.stmts[base:])
		p.stmts = p.stmts[:base]
	}
	return blk
}

func (p *parser) parseStmt() ast.Stmt {
	p.enter()
	st := p.parseStmtAt()
	p.depth--
	return st
}

func (p *parser) parseStmtAt() ast.Stmt {
	// A pragma annotates the statement that follows it. Non-annotation
	// pragmas (omp, once, ...) are ignored.
	for p.tok.Kind == token.PRAGMA {
		lit, pos := p.tok.Lit, p.tok.Pos
		p.next()
		if !ast.IsAnnotationPragma(lit) {
			continue
		}
		ann, err := ast.ParseAnnotation(lit, pos)
		if err != nil {
			p.errf(pos, "bad annotation: %v", err)
		}
		st := p.parseStmt()
		attachAnnotation(st, ann, p)
		return st
	}

	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMI:
		p.next()
		return &ast.EmptyStmt{SemiPos: pos}
	case token.KWIF:
		return p.parseIf()
	case token.KWFOR:
		return p.parseFor()
	case token.KWWHILE:
		return p.parseWhile()
	case token.KWDO:
		p.errf(pos, "do-while loops are not supported; rewrite as while")
	case token.KWRETURN:
		p.next()
		rs := &ast.ReturnStmt{ReturnPos: pos}
		if p.tok.Kind != token.SEMI {
			rs.X = p.parseExpr()
		}
		p.expect(token.SEMI)
		return rs
	case token.KWBREAK:
		p.next()
		p.expect(token.SEMI)
		return &ast.BreakStmt{BreakPos: pos}
	case token.KWCONTINUE:
		p.next()
		p.expect(token.SEMI)
		return &ast.ContinueStmt{ContinuePos: pos}
	}
	if p.startsType() {
		d := p.parseFuncOrVar("")
		vd, ok := d.(*ast.VarDecl)
		if !ok {
			p.errf(d.Pos(), "nested function declarations are not supported")
		}
		return vd
	}
	x := p.parseExpr()
	p.expect(token.SEMI)
	st := p.exprs.new()
	st.X = x
	return st
}

func attachAnnotation(st ast.Stmt, ann *ast.Annotation, p *parser) {
	switch s := st.(type) {
	case *ast.ForStmt:
		s.Annot = ann
	case *ast.WhileStmt:
		s.Annot = ann
	case *ast.IfStmt:
		s.Annot = ann
	case *ast.ExprStmt:
		s.Annot = ann
	case *ast.BlockStmt:
		s.Annot = ann
	case *ast.VarDecl:
		s.Annot = ann
	default:
		p.errf(ann.Pos, "annotation cannot attach to %T", st)
	}
}

func (p *parser) parseIf() ast.Stmt {
	kw := p.expect(token.KWIF)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	s := &ast.IfStmt{Cond: cond, IfPos: kw}
	s.Then = p.parseStmt()
	if p.accept(token.KWELSE) {
		s.Else = p.parseStmt()
	}
	return s
}

func (p *parser) parseFor() ast.Stmt {
	kw := p.expect(token.KWFOR)
	p.expect(token.LPAREN)
	s := &ast.ForStmt{ForPos: kw}
	if !p.accept(token.SEMI) {
		if p.startsType() {
			d := p.parseFuncOrVar("")
			vd, ok := d.(*ast.VarDecl)
			if !ok {
				p.errf(d.Pos(), "bad for-init declaration")
			}
			s.Init = vd
		} else {
			x := p.parseExpr()
			p.expect(token.SEMI)
			s.Init = &ast.ExprStmt{X: x}
		}
	}
	if p.tok.Kind != token.SEMI {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.RPAREN {
		s.Post = p.parseExpr()
	}
	p.expect(token.RPAREN)
	s.Body = p.parseStmt()
	return s
}

func (p *parser) parseWhile() ast.Stmt {
	kw := p.expect(token.KWWHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	s := &ast.WhileStmt{Cond: cond, WhilePos: kw}
	s.Body = p.parseStmt()
	return s
}

// ---------------------------------------------------------------------------
// Expressions

// Every expression parser leaves the height of the tree it returns in
// p.h, so operator chains, which parseBinary builds in a loop without
// nesting, stay within MaxExprHeight.

func (p *parser) parseExpr() ast.Expr { return p.parseAssignExpr() }

func (p *parser) parseAssignExpr() ast.Expr {
	p.enter()
	lhs := p.parseTernary()
	if op := p.tok.Kind; op.IsAssignOp() {
		h, pos := p.h, p.tok.Pos
		p.next()
		rhs := p.parseAssignExpr()
		p.h = p.grow(max(h, p.h), pos)
		lhs = &ast.AssignExpr{Op: op, LHS: lhs, RHS: rhs}
	}
	p.depth--
	return lhs
}

func (p *parser) parseTernary() ast.Expr {
	cond := p.parseBinary(1)
	if p.tok.Kind != token.QUESTION {
		return cond
	}
	q := p.tok.Pos
	p.next()
	h := p.h
	then := p.parseExpr()
	h = max(h, p.h)
	p.expect(token.COLON)
	p.enter()
	els := p.parseTernary()
	p.depth--
	p.h = p.grow(max(h, p.h), q)
	return &ast.CondExpr{Cond: cond, Then: then, Else: els}
}

// binaryPrec returns how tightly a binary operator binds, from || (1) to
// the multiplicative operators (6), or 0 for any other token.
func binaryPrec(k token.Kind) int {
	switch k {
	case token.OROR:
		return 1
	case token.ANDAND:
		return 2
	case token.EQ, token.NEQ:
		return 3
	case token.LT, token.GT, token.LEQ, token.GEQ:
		return 4
	case token.PLUS, token.MINUS:
		return 5
	case token.STAR, token.SLASH, token.PERCENT:
		return 6
	}
	return 0
}

// parseBinary parses a unary operand followed by binary operators that
// bind at least as tightly as minPrec, all left-associative: one
// precedence-climbing loop that builds the tree, and checks the heights,
// in the order one recursive function per precedence level would.
func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		op := p.tok.Kind
		prec := binaryPrec(op)
		if prec < minPrec || prec == 0 {
			return x
		}
		h, pos := p.h, p.tok.Pos
		p.next()
		y := p.parseBinary(prec + 1)
		p.h = p.grow(max(h, p.h), pos)
		x = &ast.BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch op := p.tok.Kind; op {
	case token.MINUS, token.PLUS, token.NOT, token.INC, token.DEC, token.AMP, token.STAR:
		pos := p.tok.Pos
		p.next()
		p.enter()
		x := p.parseUnary()
		p.depth--
		if op == token.PLUS {
			return x
		}
		p.h = p.grow(p.h, pos)
		return &ast.UnaryExpr{Op: op, X: x, OpPos: pos}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		h, pos := p.h, p.tok.Pos
		switch op := p.tok.Kind; op {
		case token.LPAREN:
			p.next()
			call := &ast.CallExpr{Fun: x}
			if p.tok.Kind != token.RPAREN {
				call.Args = append(call.Args, p.parseAssignExpr())
				h = max(h, p.h)
				for p.accept(token.COMMA) {
					call.Args = append(call.Args, p.parseAssignExpr())
					h = max(h, p.h)
				}
			}
			p.expect(token.RPAREN)
			p.h = p.grow(h, pos)
			x = call
		case token.LBRACKET:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBRACKET)
			p.h = p.grow(max(h, p.h), pos)
			x = &ast.IndexExpr{X: x, Index: idx}
		case token.DOT, token.ARROW:
			p.next()
			sel, _ := p.expectIdent()
			p.h = p.grow(h, pos)
			x = &ast.MemberExpr{X: x, Sel: sel, Arrow: op == token.ARROW}
		case token.INC, token.DEC:
			p.next()
			p.h = p.grow(h, pos)
			x = &ast.UnaryExpr{Op: op, X: x, Postfix: true, OpPos: pos}
		default:
			return x
		}
	}
}

func (p *parser) intLit(v int64, pos token.Pos) *ast.IntLit {
	x := p.ints.new()
	*x = ast.IntLit{Value: v, LitPos: pos}
	return x
}

func (p *parser) parsePrimary() ast.Expr {
	pos, lit := p.tok.Pos, p.tok.Lit
	p.h = 1
	switch p.tok.Kind {
	case token.IDENT:
		p.next()
		id := p.idents.new()
		*id = ast.Ident{Name: lit, NamePos: pos}
		return id
	case token.INTLIT:
		p.next()
		v, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			p.errf(pos, "bad integer literal %q", lit)
		}
		return p.intLit(v, pos)
	case token.FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			p.errf(pos, "bad float literal %q", lit)
		}
		x := p.floats.new()
		*x = ast.FloatLit{Value: v, LitPos: pos}
		return x
	case token.KWTRUE:
		p.next()
		return &ast.BoolLit{Value: true, LitPos: pos}
	case token.KWFALSE:
		p.next()
		return &ast.BoolLit{Value: false, LitPos: pos}
	case token.STRINGLIT:
		p.next()
		return &ast.StringLit{Value: lit, LitPos: pos}
	case token.CHARLIT:
		p.next()
		v := int64(0)
		if len(lit) > 0 {
			v = int64(lit[0])
		}
		return p.intLit(v, pos)
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		p.h = p.grow(p.h, pos)
		return &ast.ParenExpr{X: x, ParenPos: pos}
	}
	p.errf(pos, "unexpected token %s in expression", p.tok)
	return nil
}
