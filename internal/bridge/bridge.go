// Package bridge connects the source AST to the binary AST through the
// line table, the mechanism the paper adopts from debuggers (Sec. III-A2):
// one source statement maps to several binary instructions, and an
// instruction maps back to exactly one source position.
//
// Positions are (line, column) pairs, not just lines: the compiler tags
// the init/cond/increment clauses of a for header — which share a line —
// with their distinct columns, and the metric generator assigns each group
// a different execution multiplicity.
package bridge

import (
	"sort"

	"mira/internal/dwarfline"
	"mira/internal/ir"
	"mira/internal/objfile"
)

// Pos is a source coordinate.
type Pos struct {
	Line int32
	Col  int32
}

// SiteCounts aggregates the instructions attributed to one source position
// within one function.
type SiteCounts struct {
	Pos        Pos
	ByCategory [ir.NumCategories]int64
	ByOpcode   map[ir.Op]int64
	Flops      int64
	Instrs     int64
}

// FuncBridge maps source positions to instruction groups for one function.
type FuncBridge struct {
	Sym   *objfile.Symbol
	Sites map[Pos]*SiteCounts
}

// Bridge holds per-function position maps for a whole object file. Each
// function's map is built on its first Func call and kept, so modelling
// one function of a large object reads one symbol's text. A Bridge serves
// one goroutine.
type Bridge struct {
	obj   *objfile.File
	syms  map[string]*objfile.Symbol
	funcs map[string]*FuncBridge
}

// Build indexes an object file's symbols by name. When a name repeats,
// the last symbol wins.
func Build(obj *objfile.File) *Bridge {
	b := &Bridge{obj: obj, syms: make(map[string]*objfile.Symbol, len(obj.Syms)), funcs: map[string]*FuncBridge{}}
	for i := range obj.Syms {
		b.syms[obj.Syms[i].Name] = &obj.Syms[i]
	}
	return b
}

// Func returns the per-function bridge for a qualified name, building it
// on first use.
func (b *Bridge) Func(name string) (*FuncBridge, bool) {
	if fb, ok := b.funcs[name]; ok {
		return fb, true
	}
	sym, ok := b.syms[name]
	if !ok {
		return nil, false
	}
	fb := b.build(sym)
	b.funcs[name] = fb
	return fb, true
}

// build groups one symbol's instructions by their line-table position.
// The table's rows are sorted by address and a row covers the addresses
// up to the next row's, so the text is walked one row's run at a time.
func (b *Bridge) build(sym *objfile.Symbol) *FuncBridge {
	text := b.obj.FuncText(sym)
	var rows []dwarfline.Row
	if b.obj.Line != nil {
		rows = b.obj.Line.Rows
	}
	// r is the row covering the current address, -1 before the first.
	start, end := sym.Start, sym.Start+uint64(len(text))
	r := sort.Search(len(rows), func(i int) bool { return rows[i].Addr > start }) - 1
	// Each run starts at the symbol or at a row inside it, and each
	// position holds at least one run.
	runs := max(sort.Search(len(rows), func(i int) bool { return rows[i].Addr >= end })-r, 0)
	fb := &FuncBridge{Sym: sym, Sites: make(map[Pos]*SiteCounts, runs)}
	slab := make([]SiteCounts, 0, runs)
	for idx := 0; idx < len(text); {
		addr := start + uint64(idx)
		for r+1 < len(rows) && rows[r+1].Addr <= addr {
			r++
		}
		var pos Pos
		if r >= 0 {
			pos = Pos{Line: rows[r].Line, Col: rows[r].Col}
		}
		n := len(text) - idx
		if r+1 < len(rows) && rows[r+1].Addr-addr < uint64(n) {
			n = int(rows[r+1].Addr - addr)
		}
		sc, ok := fb.Sites[pos]
		if !ok {
			// A slab that overflows its estimate reallocates, but the
			// map keeps the only references, so they stay valid.
			slab = append(slab, SiteCounts{Pos: pos, ByOpcode: map[ir.Op]int64{}})
			sc = &slab[len(slab)-1]
			fb.Sites[pos] = sc
		}
		for _, in := range text[idx : idx+n] {
			sc.ByCategory[in.Op.Cat()]++
			sc.ByOpcode[in.Op]++
			sc.Flops += int64(in.Op.Flops())
		}
		sc.Instrs += int64(n)
		idx += n
	}
	return fb
}

// At returns the instruction group at an exact source position, or nil.
func (fb *FuncBridge) At(line, col int) *SiteCounts {
	return fb.Sites[Pos{Line: int32(line), Col: int32(col)}]
}

// Positions returns every position with attributed instructions, sorted.
func (fb *FuncBridge) Positions() []Pos {
	out := make([]Pos, 0, len(fb.Sites))
	for p := range fb.Sites {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out
}
