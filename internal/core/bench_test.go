package core_test

import (
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
)

// BenchmarkAnalyze_MiniFE times the whole cold pipeline — parse, sema,
// compile, object round trip and metrics generation — on miniFE, the
// suite's deepest call tree.
func BenchmarkAnalyze_MiniFE(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.Analyze("minife.c", benchprogs.MiniFE, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
