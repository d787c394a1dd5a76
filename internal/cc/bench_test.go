package cc_test

import (
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cc"
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
