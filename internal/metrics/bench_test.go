package metrics_test

import (
	"bytes"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cc"
	"mira/internal/metrics"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

// compiled runs the front end on one corpus program and round-trips its
// object through the encoding, so the generator sees the object as the
// pipeline does.
func compiled(b *testing.B, s benchprogs.Source) (*sema.Program, *objfile.File) {
	b.Helper()
	file, err := parser.ParseFile(s.Name+".c", s.Src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		b.Fatal(err)
	}
	obj, err := cc.Compile(prog, cc.Options{SourceName: file.Name})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obj.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	decoded, err := objfile.Decode(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	return prog, decoded
}

// BenchmarkFuncModel times model generation (Generator.FuncModel) over
// the front-end corpus (every bundled program and each Table I row at
// three scales), from the decoded object as the pipeline sees it; one op
// models every function of every program once.
func BenchmarkFuncModel(b *testing.B) {
	var gens []*metrics.Generator
	var orders [][]string
	for _, s := range benchprogs.Corpus() {
		prog, decoded := compiled(b, s)
		gens = append(gens, metrics.NewGenerator(prog, decoded, metrics.Config{}))
		orders = append(orders, prog.FuncOrder)
	}
	b.ReportAllocs()
	for b.Loop() {
		for i, g := range gens {
			for _, q := range orders[i] {
				if _, _, err := g.FuncModel(q); err != nil {
					b.Fatal(err)
				}
			}
			g.Warnings = g.Warnings[:0]
		}
	}
}

// BenchmarkFuncModelOne times what an edit of one function pays in
// metrics: a fresh generator over the largest corpus program's object
// and the model of its last defined function.
func BenchmarkFuncModelOne(b *testing.B) {
	var largest benchprogs.Source
	for _, s := range benchprogs.Corpus() {
		if len(s.Src) > len(largest.Src) {
			largest = s
		}
	}
	prog, decoded := compiled(b, largest)
	q := prog.FuncOrder[len(prog.FuncOrder)-1]
	b.ReportAllocs()
	for b.Loop() {
		g := metrics.NewGenerator(prog, decoded, metrics.Config{})
		if _, _, err := g.FuncModel(q); err != nil {
			b.Fatal(err)
		}
	}
}
