// Package cc compiles MiniC source (via the sema-analyzed AST) into a Mira
// object file: synthetic x86-flavoured instructions, a symbol table, a
// .data image for globals, and a DWARF-style line table tagging every
// instruction with the source line *and column* that produced it.
//
// The compiler stands in for gcc/icc in the paper's pipeline. It performs
// the optimizations whose effects separate binary-level analysis (Mira)
// from source-only analysis (PBound): constant folding, strength
// reduction, dead-code elision on redundant moves, and loop-invariant code
// motion of floating-point subexpressions (hoisted code is tagged to the
// loop's init clause, which is also where the static model attributes
// once-per-loop-entry cost).
//
// Calling convention: arguments are staged with ARGI/ARGF in parameter
// order (methods receive `this` first), CALL transfers them into the
// callee's registers r0..rk, and RETI/RETF place the return value where
// GETRETI/GETRETF retrieve it. Local arrays (C99 VLA style) and objects
// are carved from the heap with ALLOC; CALL/RET save and restore the heap
// top, giving stack discipline.
package cc

import (
	"fmt"
	"math"
	"sort"

	"mira/internal/ast"
	"mira/internal/dwarfline"
	"mira/internal/ir"
	"mira/internal/objfile"
	"mira/internal/sema"
	"mira/internal/token"
)

// Options controls compilation.
type Options struct {
	// SourceName is recorded in the object file for diagnostics.
	SourceName string
	// DisableOpt turns off constant folding across expressions, strength
	// reduction, and LICM — the "unoptimized binary" used by ablations.
	DisableOpt bool
}

// Error is a compile error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Unit is one compiled, not-yet-linked function: its instruction body,
// per-instruction position tags, unresolved call sites (callee names
// rather than symbol indexes — symbol indexes are a property of the final
// link order, not of the function), and symbol metadata. Units are the
// per-function artifacts the incremental pipeline caches by
// function-content hash; Link never mutates one, so a cached Unit can be
// linked into any number of object files.
type Unit struct {
	Name   string
	Instrs []ir.Instr
	Tags   []token.Pos
	// Calls maps a CALL instruction's index within Instrs to the callee's
	// qualified name; Link resolves it against the final symbol table.
	Calls map[int]string
	// Sym is the symbol metadata; Start and Count are zero until Link
	// places the unit.
	Sym objfile.Symbol
}

// CompileFunc compiles a single function (defined or extern) into a Unit.
// Each call is self-contained: global layout is recomputed from the
// program, so compiling functions one by one produces bit-identical
// bodies to a whole-program Compile.
func CompileFunc(prog *sema.Program, opts Options, qname string) (*Unit, error) {
	fi, ok := prog.Funcs[qname]
	if !ok {
		return nil, fmt.Errorf("cc: no function %q", qname)
	}
	if fi.Decl.IsExtern {
		return externUnit(fi)
	}
	g := &globalCtx{
		prog:       prog,
		opts:       opts,
		globalAddr: map[string]uint64{},
	}
	if err := g.layoutGlobals(); err != nil {
		return nil, err
	}
	var compileErr error
	var fc *funcCompiler
	func() {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(*Error); ok {
					compileErr = e
					return
				}
				panic(r)
			}
		}()
		fc = newFuncCompiler(g, fi)
		fc.compile()
	}()
	if compileErr != nil {
		return nil, compileErr
	}
	calls := make(map[int]string, len(g.callNames))
	for k, callee := range g.callNames {
		calls[k.instr] = callee
	}
	return &Unit{
		Name:   qname,
		Instrs: fc.instrs,
		Tags:   fc.tags,
		Calls:  calls,
		Sym: objfile.Symbol{
			Name:     qname,
			RegCount: uint32(fc.nextReg),
			Params:   fc.paramKinds(),
			Ret:      retKind(fi.Decl.RetType),
		},
	}, nil
}

// externUnit materializes the builtin library body for an extern
// declaration.
func externUnit(fi *sema.FuncInfo) (*Unit, error) {
	q := fi.QName
	body, ok := libBody(q)
	if !ok {
		return nil, &Error{Pos: fi.Decl.Pos(), Msg: fmt.Sprintf("extern function %q has no library implementation", q)}
	}
	var kinds []objfile.ParamKind
	for _, p := range fi.Decl.Params {
		kinds = append(kinds, paramKind(p.Type))
	}
	regCount := int32(len(kinds))
	for _, in := range body {
		for _, r := range []int32{in.Rd, in.Rs1, in.Rs2} {
			if r != ir.NoReg && r+1 > regCount {
				regCount = r + 1
			}
		}
	}
	tags := make([]token.Pos, len(body))
	for i := range tags {
		tags[i] = fi.Decl.Pos()
	}
	return &Unit{
		Name:   q,
		Instrs: body,
		Tags:   tags,
		Sym: objfile.Symbol{
			Name:     q,
			RegCount: uint32(regCount),
			Params:   kinds,
			Ret:      retKind(fi.Decl.RetType),
			Extern:   true,
		},
	}, nil
}

// LinkOrder returns function qualified names in object-file layout order:
// defined functions in source order, then extern declarations in source
// order — the order Compile has always emitted.
func LinkOrder(prog *sema.Program) []string {
	out := make([]string, 0, len(prog.FuncOrder))
	for _, q := range prog.FuncOrder {
		if !prog.Funcs[q].Decl.IsExtern {
			out = append(out, q)
		}
	}
	for _, q := range prog.FuncOrder {
		if prog.Funcs[q].Decl.IsExtern {
			out = append(out, q)
		}
	}
	return out
}

// Link assembles compiled units (in the given order) into an object file:
// concatenate bodies, resolve call targets against the symbol table, emit
// the line table, and lay out the .data image. .text and the line table
// are each allocated once, at their final size, and calls are patched in
// the copy, so units are read-only inputs and cached units survive
// linking unchanged.
func Link(prog *sema.Program, opts Options, units []*Unit) (*objfile.File, error) {
	g := &globalCtx{
		prog:       prog,
		opts:       opts,
		globalAddr: map[string]uint64{},
	}
	if err := g.layoutGlobals(); err != nil {
		return nil, err
	}
	symIndex := make(map[string]int64, len(units))
	// A row starts wherever the position changes from the previous
	// instruction's, so counting changes sizes the line table exactly.
	n, rows := 0, 0
	prev := token.Pos{}
	for i, u := range units {
		symIndex[u.Name] = int64(i)
		n += len(u.Instrs)
		for j := range u.Instrs {
			if pos := linePos(u.Tags[j]); pos != prev || rows == 0 {
				rows++
				prev = pos
			}
		}
	}
	f := &objfile.File{
		SourceName: opts.SourceName,
		MemWords:   g.memTop,
		Text:       make([]ir.Instr, n),
		Syms:       make([]objfile.Symbol, len(units)),
	}
	var lb dwarfline.Builder
	lb.Grow(rows)
	start := 0
	for i, u := range units {
		sym := u.Sym
		sym.Start = uint64(start)
		sym.Count = uint64(len(u.Instrs))
		text := f.Text[start : start+len(u.Instrs)]
		copy(text, u.Instrs)
		for j := range text {
			if text[j].Op == ir.CALL {
				name := u.Calls[j]
				idx, ok := symIndex[name]
				if !ok {
					return nil, fmt.Errorf("cc: call to unknown symbol %q", name)
				}
				text[j].Imm = idx
			}
			pos := linePos(u.Tags[j])
			lb.Add(uint64(start+j), int32(pos.Line), int32(pos.Col))
		}
		f.Syms[i] = sym
		start += len(text)
	}
	f.Line = lb.Table()
	f.Data = g.dataEntries()
	return f, nil
}

// linePos is the position the line table records for an instruction
// tagged pos: 1:1 when the tag is unset.
func linePos(pos token.Pos) token.Pos {
	if !pos.Valid() {
		return token.Pos{Line: 1, Col: 1}
	}
	return pos
}

// Units compiles every function of the program into units, in link order.
func Units(prog *sema.Program, opts Options) ([]*Unit, error) {
	order := LinkOrder(prog)
	units := make([]*Unit, 0, len(order))
	for _, q := range order {
		u, err := CompileFunc(prog, opts, q)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// Compile translates an analyzed program into an object file.
func Compile(prog *sema.Program, opts Options) (*objfile.File, error) {
	units, err := Units(prog, opts)
	if err != nil {
		return nil, err
	}
	return Link(prog, opts, units)
}

// callKey identifies a CALL instruction before symbol indexes exist.
type callKey struct {
	fnIdx int
	instr int
}

// globalCtx is compiler state shared across functions.
type globalCtx struct {
	prog       *sema.Program
	opts       Options
	globalAddr map[string]uint64
	memTop     uint64
	callNames  map[callKey]string
	curFnIdx   int
}

func (g *globalCtx) layoutGlobals() error {
	g.callNames = map[callKey]string{}
	addr := uint64(0)
	for _, name := range g.prog.GlobalOrder {
		gi := g.prog.Globals[name]
		if gi.IsConst && gi.HasConst && len(gi.Dims) == 0 {
			continue // folded, occupies no memory
		}
		g.globalAddr[name] = addr
		addr += uint64(gi.Size)
	}
	g.memTop = addr
	return nil
}

func (g *globalCtx) dataEntries() []objfile.DataEntry {
	var out []objfile.DataEntry
	names := make([]string, 0, len(g.globalAddr))
	for n := range g.globalAddr {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return g.globalAddr[names[i]] < g.globalAddr[names[j]] })
	for _, n := range names {
		gi := g.prog.Globals[n]
		d := objfile.DataEntry{Name: n, Addr: g.globalAddr[n], Size: uint64(gi.Size)}
		if gi.HasConst && len(gi.Dims) == 0 {
			switch gi.Type.Kind {
			case ast.Double:
				d.Init = []uint64{math.Float64bits(gi.ConstF)}
			default:
				d.Init = []uint64{uint64(gi.ConstI)}
			}
		}
		out = append(out, d)
	}
	return out
}

func paramKind(t ast.Type) objfile.ParamKind {
	if t.Ptr > 0 || t.Kind == ast.Int || t.Kind == ast.Bool || t.Kind == ast.Class {
		return objfile.KindInt
	}
	if t.Kind == ast.Double {
		return objfile.KindFloat
	}
	return objfile.KindVoid
}

func retKind(t ast.Type) objfile.ParamKind {
	if t.Kind == ast.Void {
		return objfile.KindVoid
	}
	return paramKind(t)
}
