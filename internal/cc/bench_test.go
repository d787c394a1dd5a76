package cc_test

import (
	"bytes"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cc"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

// BenchmarkCompileFunc times cc.CompileFunc, one function at a time as
// the incremental pipeline calls it, over the front-end corpus (every
// bundled program and each Table I row at three scales); one op compiles
// every function of every program once.
func BenchmarkCompileFunc(b *testing.B) {
	var progs []*sema.Program
	for _, s := range benchprogs.Corpus() {
		file, err := parser.ParseFile(s.Name+".c", s.Src)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := sema.Analyze(file)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, prog := range progs {
			for _, q := range prog.FuncOrder {
				if _, err := cc.CompileFunc(prog, cc.Options{SourceName: prog.File.Name}, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkObjectRoundTrip times the object path every analysis takes
// after compiling: cc.Link over precompiled units, Encode into a buffer,
// then objfile.Decode, over the front-end corpus; one op round-trips
// every program once.
func BenchmarkObjectRoundTrip(b *testing.B) {
	type linked struct {
		prog  *sema.Program
		opts  cc.Options
		units []*cc.Unit
	}
	var progs []linked
	for _, s := range benchprogs.Corpus() {
		file, err := parser.ParseFile(s.Name+".c", s.Src)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := sema.Analyze(file)
		if err != nil {
			b.Fatal(err)
		}
		opts := cc.Options{SourceName: s.Name + ".c"}
		units, err := cc.Units(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, linked{prog, opts, units})
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range progs {
			obj, err := cc.Link(p.prog, p.opts, p.units)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := obj.Encode(&buf); err != nil {
				b.Fatal(err)
			}
			if _, err := objfile.Decode(buf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	}
}
