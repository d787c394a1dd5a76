package cc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"mira/internal/ir"
	"mira/internal/objfile"
	"mira/internal/token"
)

// Unit byte encoding — the portable form a persistent cache stores under
// a function-content key. The format is deliberately simple (varint
// fields, length-prefixed strings) and fully validated on decode; any
// defect is an error the caller treats as a cache miss. Framing version
// changes ride on the store's magic, not on this encoding.

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putString(buf *bytes.Buffer, s string) {
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

// EncodeBytes serializes the unit.
func (u *Unit) EncodeBytes() []byte {
	var buf bytes.Buffer
	putString(&buf, u.Name)
	putUvarint(&buf, uint64(len(u.Instrs)))
	for _, in := range u.Instrs {
		putUvarint(&buf, uint64(in.Op))
		putVarint(&buf, int64(in.Rd))
		putVarint(&buf, int64(in.Rs1))
		putVarint(&buf, int64(in.Rs2))
		putVarint(&buf, in.Imm)
	}
	for _, p := range u.Tags {
		putVarint(&buf, int64(p.Line))
		putVarint(&buf, int64(p.Col))
	}
	idxs := make([]int, 0, len(u.Calls))
	for idx := range u.Calls {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	putUvarint(&buf, uint64(len(idxs)))
	for _, idx := range idxs {
		putUvarint(&buf, uint64(idx))
		putString(&buf, u.Calls[idx])
	}
	putString(&buf, u.Sym.Name)
	putUvarint(&buf, uint64(u.Sym.RegCount))
	putUvarint(&buf, uint64(len(u.Sym.Params)))
	for _, k := range u.Sym.Params {
		putUvarint(&buf, uint64(k))
	}
	putUvarint(&buf, uint64(u.Sym.Ret))
	if u.Sym.Extern {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

type unitReader struct {
	b   []byte
	err error
}

func (r *unitReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("cc: unit decode: bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *unitReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("cc: unit decode: bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *unitReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("cc: unit decode: truncated string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// DecodeUnitBytes deserializes and validates a unit encoded by
// EncodeBytes. Any framing defect returns an error.
func DecodeUnitBytes(raw []byte) (*Unit, error) {
	r := &unitReader{b: raw}
	u := &Unit{Name: r.string()}
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	// Each instruction takes at least seven bytes (five varints and a
	// two-varint tag), so a count the remaining bytes cannot hold is
	// refused before allocating: what a decode allocates stays within a
	// small multiple of its input's length.
	if n > uint64(len(r.b)/7) {
		return nil, fmt.Errorf("cc: unit decode: instruction count %d too large for %d bytes", n, len(r.b))
	}
	u.Instrs = make([]ir.Instr, n)
	for i := range u.Instrs {
		u.Instrs[i] = ir.Instr{
			Op:  ir.Op(r.uvarint()),
			Rd:  int32(r.varint()),
			Rs1: int32(r.varint()),
			Rs2: int32(r.varint()),
			Imm: r.varint(),
		}
	}
	u.Tags = make([]token.Pos, n)
	for i := range u.Tags {
		u.Tags[i] = token.Pos{Line: int(r.varint()), Col: int(r.varint())}
	}
	nc := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if nc > n {
		return nil, fmt.Errorf("cc: unit decode: %d calls for %d instructions", nc, n)
	}
	u.Calls = make(map[int]string, nc)
	for i := uint64(0); i < nc; i++ {
		idx := r.uvarint()
		name := r.string()
		if r.err != nil {
			return nil, r.err
		}
		if idx >= n {
			return nil, fmt.Errorf("cc: unit decode: call index %d out of range", idx)
		}
		u.Calls[int(idx)] = name
	}
	u.Sym.Name = r.string()
	u.Sym.RegCount = uint32(r.uvarint())
	np := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if np > uint64(len(r.b)) {
		return nil, fmt.Errorf("cc: unit decode: parameter count %d too large for %d bytes", np, len(r.b))
	}
	u.Sym.Params = make([]objfile.ParamKind, np)
	for i := range u.Sym.Params {
		u.Sym.Params[i] = objfile.ParamKind(r.uvarint())
	}
	u.Sym.Ret = objfile.ParamKind(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 1 {
		return nil, fmt.Errorf("cc: unit decode: trailing bytes")
	}
	u.Sym.Extern = r.b[0] == 1
	if u.Name == "" || u.Sym.Name != u.Name {
		return nil, fmt.Errorf("cc: unit decode: symbol/unit name mismatch")
	}
	return u, nil
}
