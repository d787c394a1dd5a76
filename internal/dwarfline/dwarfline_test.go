package dwarfline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripSimple(t *testing.T) {
	var b Builder
	b.Add(0, 1, 1)
	b.Add(1, 2, 2)
	b.Add(2, 2, 2) // coalesces into the previous row's range
	b.Add(3, 2, 9)
	b.Add(10, 7, 3)
	tbl := b.Table()
	enc := tbl.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Rows) != len(tbl.Rows) {
		t.Fatalf("rows = %d, want %d", len(dec.Rows), len(tbl.Rows))
	}
	for i := range dec.Rows {
		if dec.Rows[i] != tbl.Rows[i] {
			t.Errorf("row %d = %+v, want %+v", i, dec.Rows[i], tbl.Rows[i])
		}
	}
}

func TestLookupRanges(t *testing.T) {
	var b Builder
	b.Add(0, 10, 1)
	b.Add(5, 11, 1)
	b.Add(9, 11, 7)
	tbl := b.Table()
	cases := []struct {
		addr      uint64
		line, col int32
	}{
		{0, 10, 1}, {4, 10, 1}, {5, 11, 1}, {8, 11, 1}, {9, 11, 7}, {100, 11, 7},
	}
	for _, c := range cases {
		row, ok := tbl.Lookup(c.addr)
		if !ok || row.Line != c.line || row.Col != c.col {
			t.Errorf("Lookup(%d) = %+v/%t, want %d:%d", c.addr, row, ok, c.line, c.col)
		}
	}
}

func TestCoalescingKeepsFirstAddr(t *testing.T) {
	var b Builder
	b.Add(3, 5, 5)
	b.Add(4, 5, 5)
	b.Add(7, 5, 5)
	tbl := b.Table()
	if len(tbl.Rows) != 1 || tbl.Rows[0].Addr != 3 {
		t.Errorf("rows = %+v", tbl.Rows)
	}
	if _, ok := tbl.Lookup(2); ok {
		t.Error("lookup before the first row succeeded")
	}
}

func TestSameAddrOverrides(t *testing.T) {
	var b Builder
	b.Add(0, 1, 1)
	b.Add(0, 2, 2)
	tbl := b.Table()
	if len(tbl.Rows) != 1 || tbl.Rows[0].Line != 2 {
		t.Errorf("rows = %+v", tbl.Rows)
	}
}

func TestOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on out-of-order add")
		}
	}()
	var b Builder
	b.Add(5, 1, 1)
	b.Add(4, 1, 1)
}

func TestLargeDeltasAndBackwardLines(t *testing.T) {
	var b Builder
	b.Add(0, 1000, 80)
	b.Add(100000, 3, 1) // line decreases, addr jumps beyond special range
	tbl := b.Table()
	dec, err := Decode(tbl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Rows) != 2 || dec.Rows[1].Addr != 100000 || dec.Rows[1].Line != 3 {
		t.Errorf("rows = %+v", dec.Rows)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},           // no end opcode
		{0x01},       // truncated uvarint
		{0x02},       // truncated varint
		{0x03},       // truncated col
		{0x05},       // unknown opcode
		{0x01, 0x80}, // unterminated uvarint
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%v) succeeded, want error", c)
		}
	}
}

// Property: random monotone tables round-trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		var b Builder
		addr := uint64(0)
		for i := 0; i < n; i++ {
			addr += uint64(rng.Intn(300))
			b.Add(addr, int32(rng.Intn(5000)+1), int32(rng.Intn(200)+1))
			addr++
		}
		tbl := b.Table()
		dec, err := Decode(tbl.Encode())
		if err != nil {
			return false
		}
		if len(dec.Rows) != len(tbl.Rows) {
			return false
		}
		for i := range dec.Rows {
			if dec.Rows[i] != tbl.Rows[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddrsAt(t *testing.T) {
	var b Builder
	b.Add(0, 4, 2)
	b.Add(3, 5, 1)
	b.Add(6, 4, 2)
	tbl := b.Table()
	addrs := tbl.AddrsAt(4, 2)
	if len(addrs) != 2 || addrs[0] != 0 || addrs[1] != 6 {
		t.Errorf("AddrsAt = %v", addrs)
	}
}

// TestEncodedLen checks that EncodedLen, which presizes every encoding,
// is exact on random tables, including line steps and address gaps that
// need multi-byte varints.
func TestEncodedLen(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var b Builder
		addr := uint64(0)
		for i := r.Intn(200); i > 0; i-- {
			addr += uint64(r.Intn(3)) << uint(r.Intn(40))
			b.Add(addr, int32(r.Intn(1<<uint(r.Intn(31)))), int32(r.Intn(1<<uint(r.Intn(31)))))
		}
		tbl := b.Table()
		enc := tbl.Encode()
		if got := tbl.EncodedLen(); got != len(enc) || cap(enc) != len(enc) {
			t.Fatalf("EncodedLen = %d, encoding %d bytes (cap %d)", got, len(enc), cap(enc))
		}
		dec, err := Decode(enc)
		if err != nil || len(dec.Rows) != len(tbl.Rows) {
			t.Fatalf("decode: %v, %d rows, want %d", err, len(dec.Rows), len(tbl.Rows))
		}
		for i := range dec.Rows {
			if dec.Rows[i] != tbl.Rows[i] {
				t.Fatalf("row %d = %+v, want %+v", i, dec.Rows[i], tbl.Rows[i])
			}
		}
	}
}
