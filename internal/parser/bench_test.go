package parser_test

import (
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/parser"
)

// BenchmarkParseFile times lexing and parsing of the front-end corpus
// (every bundled program and each Table I row at three scales); one op
// parses every program once.
func BenchmarkParseFile(b *testing.B) {
	corpus := benchprogs.Corpus()
	bytes := 0
	for _, s := range corpus {
		bytes += len(s.Src)
	}
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	for b.Loop() {
		for _, s := range corpus {
			if _, err := parser.ParseFile(s.Name+".c", s.Src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
