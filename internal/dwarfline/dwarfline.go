// Package dwarfline implements a DWARF-style .debug_line section: a
// compact line-number program mapping instruction addresses to source
// line/column positions.
//
// This is the bridge mechanism the paper adopts from debuggers
// (Sec. III-A2): the compiler appends a row per emitted instruction whose
// source position changed, the encoder compresses rows into a byte program
// with a small state machine (like DWARF's), and the decoder replays the
// program. Columns matter: the init/cond/increment clauses of a for
// statement share a line, and Mira distinguishes them by column when
// assigning instruction multiplicities.
package dwarfline

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Row associates the instruction at Addr with a source position.
type Row struct {
	Addr uint64
	Line int32
	Col  int32
}

// Table is a decoded line table, sorted by Addr. A row covers addresses
// from its Addr up to (but not including) the next row's Addr.
type Table struct {
	Rows []Row
}

// Line-program opcodes.
const (
	opEnd        byte = 0x00
	opAdvancePC  byte = 0x01 // uvarint delta
	opSetLine    byte = 0x02 // varint delta
	opSetCol     byte = 0x03 // uvarint absolute
	opCopy       byte = 0x04 // emit row at current state
	opSpecialMin byte = 0x10 // special: advance pc by (op - opSpecialMin), emit
)

// Builder accumulates rows in address order.
type Builder struct {
	rows []Row
}

// Grow makes room for n more rows, so a caller that knows how many rows
// it will add allocates the table once.
func (b *Builder) Grow(n int) { b.rows = slices.Grow(b.rows, n) }

// Add records that the instruction at addr belongs to (line, col). Rows
// must be added in nondecreasing address order; duplicate consecutive
// positions are coalesced.
func (b *Builder) Add(addr uint64, line, col int32) {
	if n := len(b.rows); n > 0 {
		last := b.rows[n-1]
		if addr < last.Addr {
			panic(fmt.Sprintf("dwarfline: address %d out of order (last %d)", addr, last.Addr))
		}
		if last.Line == line && last.Col == col {
			return // covered by the previous row
		}
		if last.Addr == addr {
			b.rows[n-1] = Row{Addr: addr, Line: line, Col: col}
			return
		}
	}
	b.rows = append(b.rows, Row{Addr: addr, Line: line, Col: col})
}

// Table returns the built table.
func (b *Builder) Table() *Table { return &Table{Rows: b.rows} }

// Encode compresses the table into a line program.
func (t *Table) Encode() []byte {
	return t.AppendEncode(make([]byte, 0, t.EncodedLen()))
}

// EncodedLen returns the length of the line program Encode returns.
func (t *Table) EncodedLen() int {
	n := 1 // opEnd
	var addr uint64
	line, col := int32(1), int32(1)
	for _, r := range t.Rows {
		if r.Col != col {
			n += 1 + uvarintLen(uint64(r.Col))
			col = r.Col
		}
		if r.Line != line {
			n += 1 + uvarintLen(zigzag(int64(r.Line-line)))
			line = r.Line
		}
		if delta := r.Addr - addr; delta < uint64(0xff-opSpecialMin) {
			n++
		} else {
			n += 2 + uvarintLen(delta)
		}
		addr = r.Addr
	}
	return n
}

// AppendEncode appends the line program to dst and returns the extended
// slice.
func (t *Table) AppendEncode(out []byte) []byte {
	var addr uint64
	line := int32(1)
	col := int32(1)
	for _, r := range t.Rows {
		if r.Col != col {
			out = binary.AppendUvarint(append(out, opSetCol), uint64(r.Col))
			col = r.Col
		}
		if r.Line != line {
			out = binary.AppendVarint(append(out, opSetLine), int64(r.Line-line))
			line = r.Line
		}
		delta := r.Addr - addr
		if delta < uint64(0xff-opSpecialMin) {
			out = append(out, opSpecialMin+byte(delta))
		} else {
			out = binary.AppendUvarint(append(out, opAdvancePC), delta)
			out = append(out, opCopy)
		}
		addr = r.Addr
	}
	return append(out, opEnd)
}

// uvarintLen returns how many bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag is the unsigned form binary.AppendVarint encodes v as.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Decode replays a line program into a table.
//
// Every row of a program takes at least one byte, and every row after the
// first that Encode writes takes at least three (a column or line change
// and an address step), so the rows are presized from the program's
// length alone; a program that packs rows tighter still decodes, growing
// the table as it goes.
func Decode(prog []byte) (*Table, error) {
	t := &Table{Rows: make([]Row, 0, len(prog)/3+1)}
	var addr uint64
	line := int32(1)
	col := int32(1)
	i := 0
	for {
		if i >= len(prog) {
			return nil, fmt.Errorf("dwarfline: truncated program")
		}
		op := prog[i]
		i++
		switch {
		case op == opEnd:
			return t, nil
		case op == opAdvancePC:
			d, n := binary.Uvarint(prog[i:])
			if n <= 0 {
				return nil, fmt.Errorf("dwarfline: bad uvarint at %d", i)
			}
			i += n
			addr += d
		case op == opSetLine:
			d, n := binary.Varint(prog[i:])
			if n <= 0 {
				return nil, fmt.Errorf("dwarfline: bad varint at %d", i)
			}
			i += n
			line += int32(d)
		case op == opSetCol:
			d, n := binary.Uvarint(prog[i:])
			if n <= 0 {
				return nil, fmt.Errorf("dwarfline: bad uvarint at %d", i)
			}
			i += n
			col = int32(d)
		case op == opCopy:
			t.Rows = append(t.Rows, Row{Addr: addr, Line: line, Col: col})
		case op >= opSpecialMin:
			addr += uint64(op - opSpecialMin)
			t.Rows = append(t.Rows, Row{Addr: addr, Line: line, Col: col})
		default:
			return nil, fmt.Errorf("dwarfline: unknown opcode %#x at %d", op, i-1)
		}
	}
}

// Lookup returns the source position of the instruction at addr.
func (t *Table) Lookup(addr uint64) (Row, bool) {
	i := sort.Search(len(t.Rows), func(i int) bool { return t.Rows[i].Addr > addr })
	if i == 0 {
		return Row{}, false
	}
	return t.Rows[i-1], true
}

// AddrsAt returns every instruction address range start mapped exactly to
// (line, col); used by tests and diagnostics.
func (t *Table) AddrsAt(line, col int32) []uint64 {
	var out []uint64
	for _, r := range t.Rows {
		if r.Line == line && r.Col == col {
			out = append(out, r.Addr)
		}
	}
	return out
}
