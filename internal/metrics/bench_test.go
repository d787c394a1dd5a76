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

// BenchmarkFuncModel times model generation (Generator.FuncModel) over
// the front-end corpus (every bundled program and each Table I row at
// three scales), from the decoded object as the pipeline sees it; one op
// models every function of every program once.
func BenchmarkFuncModel(b *testing.B) {
	var gens []*metrics.Generator
	var orders [][]string
	for _, s := range benchprogs.Corpus() {
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
