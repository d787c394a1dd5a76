// Package objfile implements Mira's ELF-like object file container.
//
// The compiler serializes its output into this format and every downstream
// consumer — the disassembler feeding the binary AST, the bridge, and the
// virtual machine — works from the decoded bytes, not from in-memory
// compiler structures. That separation mirrors the paper's pipeline, where
// ROSE disassembles an on-disk ELF produced by an ordinary compiler.
//
// Layout (all little-endian):
//
//	magic "MIRA", version u16, section count u16
//	section table: {name string, offset u64, size u64} ...
//	sections: .text, .symtab, .data, .debug_line, .meta
//
// Strings are uvarint-length-prefixed UTF-8.
package objfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"mira/internal/dwarfline"
	"mira/internal/ir"
)

// Magic identifies Mira object files.
var Magic = [4]byte{'M', 'I', 'R', 'A'}

// Version is the current format version.
const Version uint16 = 1

// InstrBytes is the fixed encoded instruction size.
const InstrBytes = 24

// ParamKind describes a parameter or return slot type.
type ParamKind uint8

// Parameter kinds.
const (
	KindVoid  ParamKind = iota
	KindInt             // integers and pointers
	KindFloat           // doubles
)

func (k ParamKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "double"
	}
	return "void"
}

// Symbol describes one function in .text.
type Symbol struct {
	Name     string // qualified source name, e.g. "A::foo" or "main"
	Start    uint64 // first instruction index in .text
	Count    uint64 // number of instructions
	RegCount uint32 // virtual registers used
	Params   []ParamKind
	Ret      ParamKind
	Extern   bool // library function: body invisible to static analysis
}

// End returns one past the last instruction index.
func (s Symbol) End() uint64 { return s.Start + s.Count }

// DataEntry describes one global memory object.
type DataEntry struct {
	Name string
	Addr uint64   // word address
	Size uint64   // words
	Init []uint64 // initial word values; len 0 (zeroed) or Size
}

// File is a decoded object file.
type File struct {
	SourceName string
	Text       []ir.Instr
	Syms       []Symbol
	Data       []DataEntry
	MemWords   uint64 // static memory size (globals); heap begins here
	Line       *dwarfline.Table
}

// LookupSym finds a symbol by name.
func (f *File) LookupSym(name string) (*Symbol, bool) {
	for i := range f.Syms {
		if f.Syms[i].Name == name {
			return &f.Syms[i], true
		}
	}
	return nil, false
}

// SymAt returns the symbol containing instruction index addr.
func (f *File) SymAt(addr uint64) (*Symbol, bool) {
	for i := range f.Syms {
		if addr >= f.Syms[i].Start && addr < f.Syms[i].End() {
			return &f.Syms[i], true
		}
	}
	return nil, false
}

// FuncText returns the instruction slice of sym.
func (f *File) FuncText(sym *Symbol) []ir.Instr {
	return f.Text[sym.Start:sym.End()]
}

// ---------------------------------------------------------------------------
// Encoding

// sectionNames lists the sections in file order.
var sectionNames = [...]string{".text", ".symtab", ".data", ".debug_line", ".meta"}

// uvarintLen returns how many bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func appendString(out []byte, s string) []byte {
	return append(binary.AppendUvarint(out, uint64(len(s))), s...)
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// Encode serializes the file. It sizes every section first and writes
// the whole file into one buffer, which is w's own free space when w is a
// *bytes.Buffer, so encoding allocates once at most.
func (f *File) Encode(w io.Writer) error {
	sizes := [len(sectionNames)]int{
		len(f.Text) * InstrBytes,
		symsLen(f.Syms),
		dataLen(f.Data),
		0,
		stringLen(f.SourceName) + uvarintLen(f.MemWords),
	}
	if f.Line != nil {
		sizes[3] = f.Line.EncodedLen()
	}
	// Header, then the section table with offsets relative to file start.
	base := len(Magic) + 4
	for _, name := range sectionNames {
		base += stringLen(name) + 16
	}
	total := base
	for _, n := range sizes {
		total += n
	}
	var out []byte
	buf, isBuf := w.(*bytes.Buffer)
	if isBuf {
		buf.Grow(total)
		out = buf.AvailableBuffer()
	} else {
		out = make([]byte, 0, total)
	}
	out = append(out, Magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(sectionNames)))
	offset := uint64(base)
	for i, name := range sectionNames {
		out = appendString(out, name)
		out = binary.LittleEndian.AppendUint64(out, offset)
		out = binary.LittleEndian.AppendUint64(out, uint64(sizes[i]))
		offset += uint64(sizes[i])
	}
	out = appendText(out, f.Text)
	out = appendSyms(out, f.Syms)
	out = appendData(out, f.Data)
	if f.Line != nil {
		out = f.Line.AppendEncode(out)
	}
	out = appendString(out, f.SourceName)
	out = binary.AppendUvarint(out, f.MemWords)
	if len(out) != total {
		return fmt.Errorf("objfile: encoded %d bytes, sized %d", len(out), total)
	}
	_, err := w.Write(out)
	return err
}

func appendText(out []byte, instrs []ir.Instr) []byte {
	for _, in := range instrs {
		out = binary.LittleEndian.AppendUint16(out, uint16(in.Op))
		out = binary.LittleEndian.AppendUint16(out, 0)
		out = binary.LittleEndian.AppendUint32(out, uint32(in.Rd))
		out = binary.LittleEndian.AppendUint32(out, uint32(in.Rs1))
		out = binary.LittleEndian.AppendUint32(out, uint32(in.Rs2))
		out = binary.LittleEndian.AppendUint64(out, uint64(in.Imm))
	}
	return out
}

func symsLen(syms []Symbol) int {
	n := uvarintLen(uint64(len(syms)))
	for _, s := range syms {
		n += stringLen(s.Name) + uvarintLen(s.Start) + uvarintLen(s.Count) + uvarintLen(uint64(s.RegCount)) +
			uvarintLen(uint64(len(s.Params))) + len(s.Params) + 2
	}
	return n
}

func appendSyms(out []byte, syms []Symbol) []byte {
	out = binary.AppendUvarint(out, uint64(len(syms)))
	for _, s := range syms {
		out = appendString(out, s.Name)
		out = binary.AppendUvarint(out, s.Start)
		out = binary.AppendUvarint(out, s.Count)
		out = binary.AppendUvarint(out, uint64(s.RegCount))
		out = binary.AppendUvarint(out, uint64(len(s.Params)))
		for _, p := range s.Params {
			out = append(out, byte(p))
		}
		extern := byte(0)
		if s.Extern {
			extern = 1
		}
		out = append(out, byte(s.Ret), extern)
	}
	return out
}

func dataLen(data []DataEntry) int {
	n := uvarintLen(uint64(len(data)))
	for _, d := range data {
		n += stringLen(d.Name) + uvarintLen(d.Addr) + uvarintLen(d.Size) + uvarintLen(uint64(len(d.Init))) + 8*len(d.Init)
	}
	return n
}

func appendData(out []byte, data []DataEntry) []byte {
	out = binary.AppendUvarint(out, uint64(len(data)))
	for _, d := range data {
		out = appendString(out, d.Name)
		out = binary.AppendUvarint(out, d.Addr)
		out = binary.AppendUvarint(out, d.Size)
		out = binary.AppendUvarint(out, uint64(len(d.Init)))
		for _, v := range d.Init {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Decoding

type reader struct {
	b   []byte
	off int
}

func (r *reader) remain() int { return len(r.b) - r.off }

func (r *reader) bytes(n int) ([]byte, error) {
	if r.remain() < n {
		return nil, fmt.Errorf("objfile: truncated (need %d bytes, have %d)", n, r.remain())
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("objfile: bad uvarint at %d", r.off)
	}
	r.off += n
	return v, nil
}

// substr reads a length-prefixed string as a substring of text, a copy
// of the reader's bytes.
func (r *reader) substr(text string) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remain()) {
		return "", fmt.Errorf("objfile: truncated (need %d bytes, have %d)", n, r.remain())
	}
	r.off += int(n)
	return text[r.off-int(n) : r.off], nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Decode parses an object file.
func Decode(data []byte) (*File, error) {
	r := &reader{b: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(magic, Magic[:]) {
		return nil, fmt.Errorf("objfile: bad magic %q", magic)
	}
	verB, err := r.bytes(2)
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint16(verB); v != Version {
		return nil, fmt.Errorf("objfile: unsupported version %d", v)
	}
	cntB, err := r.bytes(2)
	if err != nil {
		return nil, err
	}
	nsec := int(binary.LittleEndian.Uint16(cntB))
	if nsec > r.remain()/17 { // a table entry takes at least 17 bytes
		return nil, fmt.Errorf("objfile: %d sections claimed in %d bytes", nsec, r.remain())
	}
	type sec struct {
		name string
		off  uint64
		size uint64
	}
	secs := make([]sec, nsec)
	for i := range secs {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		offB, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		sizeB, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		secs[i] = sec{name, binary.LittleEndian.Uint64(offB), binary.LittleEndian.Uint64(sizeB)}
	}
	body := func(name string) ([]byte, error) {
		for _, s := range secs {
			if s.name == name {
				if s.off+s.size > uint64(len(data)) {
					return nil, fmt.Errorf("objfile: section %s out of bounds", name)
				}
				return data[s.off : s.off+s.size], nil
			}
		}
		return nil, fmt.Errorf("objfile: missing section %s", name)
	}

	f := &File{}
	textB, err := body(".text")
	if err != nil {
		return nil, err
	}
	if f.Text, err = decodeText(textB); err != nil {
		return nil, err
	}
	symB, err := body(".symtab")
	if err != nil {
		return nil, err
	}
	if f.Syms, err = decodeSyms(symB); err != nil {
		return nil, err
	}
	dataB, err := body(".data")
	if err != nil {
		return nil, err
	}
	if f.Data, err = decodeData(dataB); err != nil {
		return nil, err
	}
	lineB, err := body(".debug_line")
	if err != nil {
		return nil, err
	}
	if len(lineB) > 0 {
		if f.Line, err = dwarfline.Decode(lineB); err != nil {
			return nil, err
		}
	}
	metaB, err := body(".meta")
	if err != nil {
		return nil, err
	}
	mr := &reader{b: metaB}
	if f.SourceName, err = mr.str(); err != nil {
		return nil, err
	}
	if f.MemWords, err = mr.uvarint(); err != nil {
		return nil, err
	}
	return f, nil
}

func decodeText(b []byte) ([]ir.Instr, error) {
	if len(b)%InstrBytes != 0 {
		return nil, fmt.Errorf("objfile: .text size %d not a multiple of %d", len(b), InstrBytes)
	}
	out := make([]ir.Instr, len(b)/InstrBytes)
	for i := range out {
		p := b[i*InstrBytes:]
		out[i] = ir.Instr{
			Op:  ir.Op(binary.LittleEndian.Uint16(p[0:])),
			Rd:  int32(binary.LittleEndian.Uint32(p[4:])),
			Rs1: int32(binary.LittleEndian.Uint32(p[8:])),
			Rs2: int32(binary.LittleEndian.Uint32(p[12:])),
			Imm: int64(binary.LittleEndian.Uint64(p[16:])),
		}
		if !out[i].Op.Valid() {
			return nil, fmt.Errorf("objfile: invalid opcode %d at instruction %d", out[i].Op, i)
		}
	}
	return out, nil
}

// decodeSyms decodes .symtab. Every name is a substring of one copy of
// the section and every parameter list a window of one slab, so the
// table costs a fixed number of allocations; both, like the symbol
// slice, are sized from the section's length, since each symbol takes at
// least six bytes, not from the count the section claims.
func decodeSyms(b []byte) ([]Symbol, error) {
	r := &reader{b: b}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remain()/6) {
		return nil, fmt.Errorf("objfile: .symtab claims %d symbols in %d bytes", n, r.remain())
	}
	text := string(b)
	syms := make([]Symbol, n)
	params := make([]ParamKind, 0, r.remain())
	for i := range syms {
		s := &syms[i]
		if s.Name, err = r.substr(text); err != nil {
			return nil, err
		}
		if s.Start, err = r.uvarint(); err != nil {
			return nil, err
		}
		if s.Count, err = r.uvarint(); err != nil {
			return nil, err
		}
		rc, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		s.RegCount = uint32(rc)
		np, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if np > uint64(r.remain()) {
			return nil, fmt.Errorf("objfile: truncated (need %d bytes, have %d)", np, r.remain())
		}
		pb, err := r.bytes(int(np))
		if err != nil {
			return nil, err
		}
		start := len(params)
		for _, k := range pb {
			params = append(params, ParamKind(k))
		}
		s.Params = params[start:len(params):len(params)]
		rb, err := r.bytes(2)
		if err != nil {
			return nil, err
		}
		s.Ret = ParamKind(rb[0])
		s.Extern = rb[1] != 0
	}
	return syms, nil
}

// decodeData decodes .data, with names as substrings of one copy of the
// section and the entry slice sized from its length (each entry takes at
// least four bytes).
func decodeData(b []byte) ([]DataEntry, error) {
	r := &reader{b: b}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remain()/4) {
		return nil, fmt.Errorf("objfile: .data claims %d entries in %d bytes", n, r.remain())
	}
	text := string(b)
	out := make([]DataEntry, n)
	for i := range out {
		d := &out[i]
		if d.Name, err = r.substr(text); err != nil {
			return nil, err
		}
		if d.Addr, err = r.uvarint(); err != nil {
			return nil, err
		}
		if d.Size, err = r.uvarint(); err != nil {
			return nil, err
		}
		ni, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ni > 0 {
			if ni > uint64(r.remain()/8) {
				return nil, fmt.Errorf("objfile: truncated (need %d words, have %d bytes)", ni, r.remain())
			}
			ib, err := r.bytes(int(ni) * 8)
			if err != nil {
				return nil, err
			}
			d.Init = make([]uint64, ni)
			for j := range d.Init {
				d.Init[j] = binary.LittleEndian.Uint64(ib[j*8:])
			}
		}
	}
	return out, nil
}
