package cc_test

import (
	"bytes"
	"slices"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cc"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

// TestObjectRoundTrip checks that objfile.Decode(Encode(f)) equals f for
// the object of every corpus program, and that Encode writes the same
// bytes to a bytes.Buffer, whose free space it fills in place, as to any
// other writer.
func TestObjectRoundTrip(t *testing.T) {
	for _, s := range benchprogs.Corpus() {
		file, err := parser.ParseFile(s.Name+".c", s.Src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := sema.Analyze(file)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := cc.Compile(prog, cc.Options{SourceName: s.Name + ".c"})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString("prefix")
		if err := obj.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		var plain plainWriter
		if err := obj.Encode(&plain); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()[len("prefix"):]
		if !bytes.Equal(raw, plain.b) {
			t.Fatalf("%s: Encode writes different bytes to a bytes.Buffer", s.Name)
		}
		dec, err := objfile.Decode(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		if msg := objectDiff(obj, dec); msg != "" {
			t.Errorf("%s: decoded object differs: %s", s.Name, msg)
		}
	}
}

// plainWriter is an io.Writer that is not a bytes.Buffer.
type plainWriter struct{ b []byte }

func (w *plainWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// objectDiff names the first field where b differs from a, or returns "".
// Empty and nil slices compare equal: the encoding does not keep the
// difference.
func objectDiff(a, b *objfile.File) string {
	switch {
	case a.SourceName != b.SourceName:
		return "source name"
	case a.MemWords != b.MemWords:
		return "memory words"
	case !slices.Equal(a.Text, b.Text):
		return ".text"
	case len(a.Syms) != len(b.Syms):
		return "symbol count"
	case len(a.Data) != len(b.Data):
		return "data entry count"
	case (a.Line == nil) != (b.Line == nil) || a.Line != nil && !slices.Equal(a.Line.Rows, b.Line.Rows):
		return "line table"
	}
	for i, x := range a.Syms {
		y := b.Syms[i]
		if x.Name != y.Name || x.Start != y.Start || x.Count != y.Count || x.RegCount != y.RegCount ||
			x.Ret != y.Ret || x.Extern != y.Extern || !slices.Equal(x.Params, y.Params) {
			return "symbol " + x.Name
		}
	}
	for i, x := range a.Data {
		y := b.Data[i]
		if x.Name != y.Name || x.Addr != y.Addr || x.Size != y.Size || !slices.Equal(x.Init, y.Init) {
			return "data entry " + x.Name
		}
	}
	return ""
}

// TestLinkLeavesUnitsUnchanged checks that Link patches calls in its own
// copy of the text: linking the same units twice gives the same object
// bytes, and every unit encodes as it did before linking, so units the
// engine caches survive any number of links.
func TestLinkLeavesUnitsUnchanged(t *testing.T) {
	for _, s := range benchprogs.Corpus() {
		file, err := parser.ParseFile(s.Name+".c", s.Src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := sema.Analyze(file)
		if err != nil {
			t.Fatal(err)
		}
		opts := cc.Options{SourceName: s.Name + ".c"}
		units, err := cc.Units(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := make([][]byte, len(units))
		for i, u := range units {
			before[i] = u.EncodeBytes()
		}
		var objs [2][]byte
		for i := range objs {
			obj, err := cc.Link(prog, opts, units)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := obj.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			objs[i] = buf.Bytes()
		}
		if !bytes.Equal(objs[0], objs[1]) {
			t.Errorf("%s: linking the same units twice gives different objects", s.Name)
		}
		for i, u := range units {
			if !bytes.Equal(u.EncodeBytes(), before[i]) {
				t.Errorf("%s: linking changed unit %s", s.Name, u.Name)
			}
		}
	}
}
