package cc_test

import (
	"reflect"
	"runtime"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cc"
	"mira/internal/parser"
	"mira/internal/sema"
)

// corpusUnits compiles every function of every corpus program.
func corpusUnits(tb testing.TB) []*cc.Unit {
	tb.Helper()
	var units []*cc.Unit
	for _, s := range benchprogs.Corpus() {
		file, err := parser.ParseFile(s.Name+".c", s.Src)
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := sema.Analyze(file)
		if err != nil {
			tb.Fatal(err)
		}
		us, err := cc.Units(prog, cc.Options{SourceName: s.Name + ".c"})
		if err != nil {
			tb.Fatal(err)
		}
		units = append(units, us...)
	}
	return units
}

// FuzzDecodeUnit feeds arbitrary bytes to cc.DecodeUnitBytes, the
// decoder of the compiled units that the store and peers hand back. It
// must never panic, must allocate within a small multiple of its input's
// length, and a unit it accepts must re-encode to bytes that decode to an
// equal unit.
func FuzzDecodeUnit(f *testing.F) {
	for _, u := range corpusUnits(f) {
		raw := u.EncodeBytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{1, 'f', 0xff, 0xff, 0xff, 0x07})
	f.Add([]byte{1, 'f', 0x80, 0x80, 0x40}) // claims 1<<20 instructions
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := cc.DecodeUnitBytes(raw)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(raw))+8192 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), alloc)
		}
		if err != nil {
			return
		}
		again, err := cc.DecodeUnitBytes(u.EncodeBytes())
		if err != nil {
			t.Fatalf("re-encoded unit rejected: %v", err)
		}
		if !reflect.DeepEqual(again, u) {
			t.Fatalf("re-encoded unit decodes differently:\n got %+v\nwant %+v", again, u)
		}
	})
}
