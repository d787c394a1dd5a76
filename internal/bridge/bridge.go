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

// Bridge holds per-function position maps for a whole object file.
type Bridge struct {
	obj   *objfile.File
	funcs map[string]*FuncBridge
}

// Build constructs the bridge for an object file.
func Build(obj *objfile.File) *Bridge {
	b := &Bridge{obj: obj, funcs: map[string]*FuncBridge{}}
	for i := range obj.Syms {
		sym := &obj.Syms[i]
		fb := &FuncBridge{Sym: sym, Sites: map[Pos]*SiteCounts{}}
		text := obj.FuncText(sym)
		for idx, in := range text {
			addr := sym.Start + uint64(idx)
			var pos Pos
			if obj.Line != nil {
				if row, ok := obj.Line.Lookup(addr); ok {
					pos = Pos{Line: row.Line, Col: row.Col}
				}
			}
			sc, ok := fb.Sites[pos]
			if !ok {
				sc = &SiteCounts{Pos: pos, ByOpcode: map[ir.Op]int64{}}
				fb.Sites[pos] = sc
			}
			sc.ByCategory[in.Op.Cat()]++
			sc.ByOpcode[in.Op]++
			sc.Flops += int64(in.Op.Flops())
			sc.Instrs++
		}
		b.funcs[sym.Name] = fb
	}
	return b
}

// Func returns the per-function bridge for a qualified name.
func (b *Bridge) Func(name string) (*FuncBridge, bool) {
	fb, ok := b.funcs[name]
	return fb, ok
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
