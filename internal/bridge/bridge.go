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
	"slices"
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
	// Ops holds the per-opcode counts, sorted by opcode: a window of one
	// slab that the function's sites share.
	Ops    []ir.OpN
	Flops  int64
	Instrs int64
	// first and last link the site's runs while build counts them.
	first, last int32
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
	// Scratch reused from one build to the next.
	runs []run
}

// run is one stretch of a function's text under one line-table row.
type run struct {
	lo, hi int   // instruction range within the function's text
	next   int32 // index of the site's next run, or -1
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
// Each position's runs are linked, and then counted one position at a
// time, so that the function's per-opcode counts fill one slab.
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
	// position holds at least one run, so maxRuns bounds the sites too
	// and the site slab never grows: the map's pointers stay in it.
	maxRuns := max(sort.Search(len(rows), func(i int) bool { return rows[i].Addr >= end })-r, 0)
	fb := &FuncBridge{Sym: sym, Sites: make(map[Pos]*SiteCounts, maxRuns)}
	slab := make([]SiteCounts, 0, maxRuns)
	b.runs = slices.Grow(b.runs[:0], maxRuns)
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
		ri := int32(len(b.runs))
		b.runs = append(b.runs, run{lo: idx, hi: idx + n, next: -1})
		if sc, ok := fb.Sites[pos]; ok {
			b.runs[sc.last].next = ri
			sc.last = ri
		} else {
			slab = append(slab, SiteCounts{Pos: pos, first: ri, last: ri})
			fb.Sites[pos] = &slab[len(slab)-1]
		}
		idx += n
	}
	// Count each site's instructions, and how many distinct opcodes it
	// has, then fill one slab of exactly that many opcode counts.
	var local [64]ir.OpN // a site's opcode counts, spilling past 64
	total := 0
	for i := range slab {
		sc := &slab[i]
		ops := local[:0]
		for ri := sc.first; ri >= 0; ri = b.runs[ri].next {
			for _, in := range text[b.runs[ri].lo:b.runs[ri].hi] {
				sc.ByCategory[in.Op.Cat()]++
				sc.Flops += int64(in.Op.Flops())
				ops = countOp(ops, in.Op)
			}
			sc.Instrs += int64(b.runs[ri].hi - b.runs[ri].lo)
		}
		total += len(ops)
	}
	ops := make([]ir.OpN, total)
	lo := 0
	for i := range slab {
		sc := &slab[i]
		sc.Ops = ops[lo:lo]
		for ri := sc.first; ri >= 0; ri = b.runs[ri].next {
			for _, in := range text[b.runs[ri].lo:b.runs[ri].hi] {
				sc.Ops = countOp(sc.Ops, in.Op)
			}
		}
		lo += len(sc.Ops)
		sc.Ops = sc.Ops[:len(sc.Ops):len(sc.Ops)]
	}
	return fb
}

// countOp adds one op instruction to the counts ops, sorted by opcode.
func countOp(ops []ir.OpN, op ir.Op) []ir.OpN {
	i := len(ops)
	for i > 0 && ops[i-1].Op > op {
		i--
	}
	if i > 0 && ops[i-1].Op == op {
		ops[i-1].N++
		return ops
	}
	return slices.Insert(ops, i, ir.OpN{Op: op, N: 1})
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
