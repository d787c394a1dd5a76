// Package sema performs semantic analysis over the MiniC source AST:
// symbol resolution, class field layout, constant-global folding, function
// signature collection, and call-graph construction (with recursion
// detection — the model generator requires an acyclic call structure, as
// does the paper's per-function Python model).
package sema

import (
	"fmt"
	"sort"

	"mira/internal/ast"
	"mira/internal/token"
)

// Error is a semantic error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Field is a class field with its word offset.
type Field struct {
	Name   string
	Type   ast.Type
	Offset int64 // words from object base
	Size   int64 // words
}

// ClassInfo is the layout of a class.
type ClassInfo struct {
	Name   string
	Decl   *ast.ClassDecl
	Fields []Field
	Size   int64 // words
}

// FieldByName finds a field.
func (c *ClassInfo) FieldByName(name string) (*Field, bool) {
	for i := range c.Fields {
		if c.Fields[i].Name == name {
			return &c.Fields[i], true
		}
	}
	return nil, false
}

// FuncInfo describes a function or method.
type FuncInfo struct {
	QName   string // qualified name, e.g. "A::foo"
	Decl    *ast.FuncDecl
	Class   *ClassInfo // receiver class for methods, nil otherwise
	Callees []string   // qualified names of statically resolved callees
}

// GlobalInfo describes a global variable.
type GlobalInfo struct {
	Name    string
	Type    ast.Type
	IsConst bool
	// Const scalars fold to a value and occupy no memory.
	ConstI   int64
	ConstF   float64
	HasConst bool
	// Dims are constant-folded array dimensions (empty for scalars).
	Dims []int64
	Size int64 // words
	Decl *ast.VarDecl
}

// Program is the analyzed translation unit.
type Program struct {
	File    *ast.File
	Classes map[string]*ClassInfo
	Funcs   map[string]*FuncInfo
	Globals map[string]*GlobalInfo
	// FuncOrder lists function qualified names in source order.
	FuncOrder []string
	// GlobalOrder lists globals in source order.
	GlobalOrder []string
}

// Analyze performs semantic analysis of a parsed file.
func Analyze(file *ast.File) (*Program, error) {
	p := &Program{
		File:    file,
		Classes: map[string]*ClassInfo{},
		Funcs:   map[string]*FuncInfo{},
		Globals: map[string]*GlobalInfo{},
	}
	if err := p.collectClasses(); err != nil {
		return nil, err
	}
	if err := p.collectGlobals(); err != nil {
		return nil, err
	}
	if err := p.collectFuncs(); err != nil {
		return nil, err
	}
	if err := p.buildCallGraph(); err != nil {
		return nil, err
	}
	if cycle := p.findRecursion(); cycle != nil {
		return nil, &Error{
			Pos: p.Funcs[cycle[0]].Decl.Pos(),
			Msg: fmt.Sprintf("recursive call chain %v is not supported by the static model", cycle),
		}
	}
	return p, nil
}

func errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Program) collectClasses() error {
	for _, d := range p.File.Decls {
		cd, ok := d.(*ast.ClassDecl)
		if !ok {
			continue
		}
		if _, dup := p.Classes[cd.Name]; dup {
			return errf(cd.Pos(), "class %q redeclared", cd.Name)
		}
		ci := &ClassInfo{Name: cd.Name, Decl: cd}
		offset := int64(0)
		for _, fd := range cd.Fields {
			for _, decl := range fd.Names {
				size := int64(1)
				for _, dim := range decl.Dims {
					v, ok := p.ConstInt(dim)
					if !ok || v <= 0 {
						return errf(decl.Pos(), "class field %q needs constant positive array dimensions", decl.Name)
					}
					size *= v
				}
				if _, dup := ci.FieldByName(decl.Name); dup {
					return errf(decl.Pos(), "field %q redeclared in class %q", decl.Name, cd.Name)
				}
				ci.Fields = append(ci.Fields, Field{
					Name: decl.Name, Type: fd.Type, Offset: offset, Size: size,
				})
				offset += size
			}
		}
		ci.Size = offset
		if ci.Size == 0 {
			ci.Size = 1 // objects occupy at least one word, like C++
		}
		p.Classes[cd.Name] = ci
	}
	return nil
}

func (p *Program) collectGlobals() error {
	for _, d := range p.File.Decls {
		vd, ok := d.(*ast.VarDecl)
		if !ok {
			continue
		}
		for _, decl := range vd.Names {
			if _, dup := p.Globals[decl.Name]; dup {
				return errf(decl.Pos(), "global %q redeclared", decl.Name)
			}
			g := &GlobalInfo{Name: decl.Name, Type: vd.Type, IsConst: vd.IsConst, Decl: vd}
			size := int64(1)
			for _, dim := range decl.Dims {
				v, ok := p.ConstInt(dim)
				if !ok || v <= 0 {
					return errf(decl.Pos(), "global array %q needs constant positive dimensions", decl.Name)
				}
				g.Dims = append(g.Dims, v)
				size *= v
			}
			g.Size = size
			if vd.IsConst && len(decl.Dims) == 0 {
				if decl.Init == nil {
					return errf(decl.Pos(), "const global %q needs an initializer", decl.Name)
				}
				switch vd.Type.Kind {
				case ast.Int, ast.Bool:
					v, ok := p.ConstInt(decl.Init)
					if !ok {
						return errf(decl.Pos(), "const global %q initializer is not a constant expression", decl.Name)
					}
					g.ConstI = v
					g.HasConst = true
				case ast.Double:
					v, ok := p.ConstFloat(decl.Init)
					if !ok {
						return errf(decl.Pos(), "const global %q initializer is not a constant expression", decl.Name)
					}
					g.ConstF = v
					g.HasConst = true
				default:
					return errf(decl.Pos(), "const global %q has unsupported type %s", decl.Name, vd.Type)
				}
			} else if decl.Init != nil {
				// Non-const globals may carry constant initializers that the
				// object file's .data section materializes.
				switch vd.Type.Kind {
				case ast.Int, ast.Bool:
					v, ok := p.ConstInt(decl.Init)
					if !ok {
						return errf(decl.Pos(), "global %q initializer must be constant", decl.Name)
					}
					g.ConstI = v
					g.HasConst = true
				case ast.Double:
					v, ok := p.ConstFloat(decl.Init)
					if !ok {
						return errf(decl.Pos(), "global %q initializer must be constant", decl.Name)
					}
					g.ConstF = v
					g.HasConst = true
				}
			}
			p.Globals[decl.Name] = g
			p.GlobalOrder = append(p.GlobalOrder, decl.Name)
		}
	}
	return nil
}

func (p *Program) collectFuncs() error {
	for _, fd := range p.File.Funcs() {
		q := fd.QualifiedName()
		existing, dup := p.Funcs[q]
		if dup {
			// A prototype followed by a definition is fine; two bodies are not.
			if existing.Decl.Body != nil && fd.Body != nil {
				return errf(fd.Pos(), "function %q redefined", q)
			}
			if fd.Body == nil && !fd.IsExtern {
				continue // keep whichever decl has the body
			}
		}
		fi := &FuncInfo{QName: q, Decl: fd}
		if fd.ClassName != "" {
			ci, ok := p.Classes[fd.ClassName]
			if !ok {
				return errf(fd.Pos(), "method %q of unknown class", q)
			}
			fi.Class = ci
		}
		if !dup {
			p.FuncOrder = append(p.FuncOrder, q)
		}
		p.Funcs[q] = fi
	}
	for _, q := range p.FuncOrder {
		fi := p.Funcs[q]
		if fi.Decl.Body == nil && !fi.Decl.IsExtern {
			return errf(fi.Decl.Pos(), "function %q declared but never defined", q)
		}
	}
	return nil
}

// ResolveCall resolves a call expression to a callee qualified name, given
// the class context of the caller (for unqualified method calls) and a
// lookup for the static type of member-call receivers.
func (p *Program) ResolveCall(call *ast.CallExpr, receiverClass func(ast.Expr) (string, bool)) (string, error) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := p.Funcs[fun.Name]; ok {
			return fun.Name, nil
		}
		// operator() application on a class-typed variable: v(args).
		if cls, ok := receiverClass(fun); ok {
			q := cls + "::operator()"
			if _, defined := p.Funcs[q]; defined {
				return q, nil
			}
			return "", errf(fun.Pos(), "class %q has no operator()", cls)
		}
		return "", errf(fun.Pos(), "call to undefined function %q", fun.Name)
	case *ast.MemberExpr:
		cls, ok := receiverClass(fun.X)
		if !ok {
			return "", errf(fun.Pos(), "method call on non-class expression")
		}
		q := cls + "::" + fun.Sel
		if _, defined := p.Funcs[q]; defined {
			return q, nil
		}
		return "", errf(fun.Pos(), "class %q has no method %q", cls, fun.Sel)
	default:
		if cls, ok := receiverClass(call.Fun); ok {
			q := cls + "::operator()"
			if _, defined := p.Funcs[q]; defined {
				return q, nil
			}
		}
	}
	return "", errf(call.Pos(), "unsupported call target")
}

// buildCallGraph resolves direct calls in every function body. Receiver
// class resolution here is purely syntactic (declared variable types);
// the compiler re-resolves with full scope information.
func (p *Program) buildCallGraph() error {
	for _, q := range p.FuncOrder {
		fi := p.Funcs[q]
		if fi.Decl.Body == nil {
			continue
		}
		types := p.collectDeclaredClassVars(fi)
		seen := map[string]bool{}
		var firstErr error
		ast.Walk(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || firstErr != nil {
				return true
			}
			callee, err := p.ResolveCall(call, func(e ast.Expr) (string, bool) {
				id, ok := e.(*ast.Ident)
				if !ok {
					return "", false
				}
				cls, ok := types[id.Name]
				return cls, ok
			})
			if err != nil {
				firstErr = err
				return false
			}
			if !seen[callee] {
				seen[callee] = true
				fi.Callees = append(fi.Callees, callee)
			}
			return true
		})
		if firstErr != nil {
			return firstErr
		}
		sort.Strings(fi.Callees)
	}
	return nil
}

// collectDeclaredClassVars maps variable name -> class name for class-typed
// locals and params of fi (plus class-typed globals).
func (p *Program) collectDeclaredClassVars(fi *FuncInfo) map[string]string {
	types := map[string]string{}
	for name, g := range p.Globals {
		if g.Type.Kind == ast.Class && g.Type.Ptr == 0 {
			types[name] = g.Type.ClassName
		}
	}
	for _, prm := range fi.Decl.Params {
		if prm.Type.Kind == ast.Class {
			types[prm.Name] = prm.Type.ClassName
		}
	}
	ast.Walk(fi.Decl.Body, func(n ast.Node) bool {
		vd, ok := n.(*ast.VarDecl)
		if ok && vd.Type.Kind == ast.Class && vd.Type.Ptr == 0 {
			for _, d := range vd.Names {
				types[d.Name] = vd.Type.ClassName
			}
		}
		return true
	})
	return types
}

// findRecursion returns a cyclic call chain if one exists.
func (p *Program) findRecursion() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var cycle []string
	var visit func(q string, path []string) bool
	visit = func(q string, path []string) bool {
		color[q] = gray
		fi := p.Funcs[q]
		if fi != nil {
			for _, c := range fi.Callees {
				switch color[c] {
				case gray:
					cycle = append(append([]string{}, path...), q, c)
					return true
				case white:
					if visit(c, append(path, q)) {
						return true
					}
				}
			}
		}
		color[q] = black
		return false
	}
	for _, q := range p.FuncOrder {
		if color[q] == white {
			if visit(q, nil) {
				return cycle
			}
		}
	}
	return nil
}

// ConstInt resolves a compile-time integer constant expression; const
// globals participate.
func (p *Program) ConstInt(e ast.Expr) (int64, bool) {
	c := p.Fold(e, nil)
	return c.I, c.IntOK()
}

// ConstFloat resolves a compile-time float constant expression.
func (p *Program) ConstFloat(e ast.Expr) (float64, bool) {
	c := p.Fold(e, nil)
	return c.F, c.FloatOK()
}

// Const is what constant folding knows about an expression: its integer
// reading I, valid when IntOK, its float reading F, valid when FloatOK,
// and whether a float literal appears in it. The readings fold
// independently: bool literals, ! and % fold only as integers, const
// double globals only as floats, int literals and int globals as both; a
// division or % by zero does not fold.
type Const struct {
	I     int64
	F     float64
	flags uint8
}

const (
	intOK uint8 = 1 << iota
	floatOK
	hasFloat
)

// IntOK reports whether the expression folds to the integer I.
func (c Const) IntOK() bool { return c.flags&intOK != 0 }

// FloatOK reports whether the expression folds to the float F.
func (c Const) FloatOK() bool { return c.flags&floatOK != 0 }

// HasFloat reports whether a float literal appears in the expression.
func (c Const) HasFloat() bool { return c.flags&hasFloat != 0 }

// Fold folds e bottom-up in one visit of each node it reaches, calling
// visit (when non-nil) with each node's result, children before parents.
// It descends through parentheses, unary and binary operators; any other
// node is a leaf, constant only if it is a literal or a const global.
func (p *Program) Fold(e ast.Expr, visit func(ast.Expr, Const)) Const {
	var c Const
	switch x := e.(type) {
	case *ast.ParenExpr:
		c = p.Fold(x.X, visit)
	case *ast.UnaryExpr:
		c = foldUnary(x.Op, p.Fold(x.X, visit))
	case *ast.BinaryExpr:
		c = foldBinary(x.Op, p.Fold(x.X, visit), p.Fold(x.Y, visit))
	default:
		c = p.foldLeaf(e)
	}
	if visit != nil {
		visit(e, c)
	}
	return c
}

func (p *Program) foldLeaf(e ast.Expr) Const {
	switch x := e.(type) {
	case *ast.IntLit:
		return Const{I: x.Value, F: float64(x.Value), flags: intOK | floatOK}
	case *ast.FloatLit:
		return Const{F: x.Value, flags: floatOK | hasFloat}
	case *ast.BoolLit:
		if x.Value {
			return Const{I: 1, flags: intOK}
		}
		return Const{flags: intOK}
	case *ast.Ident:
		g, ok := p.Globals[x.Name]
		switch {
		case !ok || !g.IsConst || !g.HasConst:
		case g.Type.Kind == ast.Double:
			return Const{F: g.ConstF, flags: floatOK}
		default:
			return Const{I: g.ConstI, F: float64(g.ConstI), flags: intOK | floatOK}
		}
	}
	return Const{}
}

func foldUnary(op token.Kind, v Const) Const {
	switch {
	case op == token.MINUS:
		return Const{I: -v.I, F: -v.F, flags: v.flags}
	case op == token.NOT && v.IntOK() && v.I == 0:
		return Const{I: 1, flags: intOK | v.flags&hasFloat}
	case op == token.NOT:
		return Const{flags: v.flags & (intOK | hasFloat)}
	}
	return Const{flags: v.flags & hasFloat}
}

func foldBinary(op token.Kind, a, b Const) Const {
	c := Const{flags: (a.flags | b.flags) & hasFloat}
	ok := a.flags & b.flags & (intOK | floatOK)
	switch op {
	case token.PLUS:
		c.I, c.F = a.I+b.I, a.F+b.F
	case token.MINUS:
		c.I, c.F = a.I-b.I, a.F-b.F
	case token.STAR:
		c.I, c.F = a.I*b.I, a.F*b.F
	case token.SLASH, token.PERCENT:
		if b.I == 0 {
			ok &^= intOK
		} else if op == token.SLASH {
			c.I = a.I / b.I
		} else {
			c.I = a.I % b.I
		}
		if b.F == 0 || op == token.PERCENT {
			ok &^= floatOK
		} else {
			c.F = a.F / b.F
		}
	default:
		ok = 0
	}
	c.flags |= ok
	return c
}
