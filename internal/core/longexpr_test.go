package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mira/internal/core"
	"mira/internal/pbound"
)

// longExprSource is one function whose loop body is the single statement
// s = s + s * 0.5 + s * 1.5 + ... of n product terms, a left-deep tree
// n levels deep in which every float literal is a hoisting candidate.
func longExprSource(n int) string {
	var b strings.Builder
	b.WriteString("double f(double s, int n) {\n\tint i;\n\tfor (i = 0; i < n; i++) {\n\t\ts = s")
	for k := range n {
		fmt.Fprintf(&b, " + s * %d.5", k)
	}
	b.WriteString(";\n\t}\n\treturn s;\n}\n")
	return b.String()
}

// TestFrontEndLinearInExpressionLength analyzes a 64k-term statement
// (about 0.9 MB, under the daemon's 4 MiB body limit). A front end that
// re-walks the subtree below every level of it takes minutes.
func TestFrontEndLinearInExpressionLength(t *testing.T) {
	const bound = 10 * time.Second
	src := longExprSource(1 << 16)
	start := time.Now()
	p, err := core.Analyze("long.c", src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > bound {
		t.Errorf("core.Analyze of a %d-byte statement took %v, want under %v", len(src), d, bound)
	}
	start = time.Now()
	if _, err := pbound.Analyze(p.Prog); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > bound {
		t.Errorf("pbound.Analyze of a %d-byte statement took %v, want under %v", len(src), d, bound)
	}
}

// BenchmarkFrontEndLongExpr times the cold pipeline on one statement of
// 1k, 4k and 16k terms; linear front-end stages make ns/op grow about 4x
// per 4x terms.
func BenchmarkFrontEndLongExpr(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		src := longExprSource(n)
		b.Run(fmt.Sprintf("terms=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := core.Analyze("long.c", src, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
