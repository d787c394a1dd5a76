package parser

import (
	"errors"
	"strings"
	"testing"
)

// TestNestingBounds parses each nesting shape exactly at MaxNesting and
// one level past it. A return statement and its expression take two
// levels, so an expression under one holds MaxNesting-2 more.
func TestNestingBounds(t *testing.T) {
	ret := func(e string) string { return "int f(int n) { return " + e + "; }" }
	shapes := []struct {
		name string
		src  func(k int) string
		at   int // the largest k within the bound
	}{
		{"parentheses", func(k int) string {
			return ret(strings.Repeat("(", k) + "n" + strings.Repeat(")", k))
		}, MaxNesting - 2},
		{"unary", func(k int) string { return ret(strings.Repeat("!", k) + "n") }, MaxNesting - 2},
		{"ternaries", func(k int) string { return ret(strings.Repeat("n ? n : ", k) + "n") }, MaxNesting - 2},
		{"assignments", func(k int) string { return ret(strings.Repeat("n = ", k) + "n") }, MaxNesting - 2},
		{"call arguments", func(k int) string {
			return ret(strings.Repeat("g(", k) + "n" + strings.Repeat(")", k))
		}, MaxNesting - 2},
		{"blocks", func(k int) string {
			return "int f(int n) { " + strings.Repeat("{", k) + strings.Repeat("}", k) + " return n; }"
		}, MaxNesting},
		{"ifs", func(k int) string {
			return "int f(int n) { " + strings.Repeat("if (n) ", k) + "; return n; }"
		}, MaxNesting - 1},
		{"pragmas", func(k int) string {
			return "int f(int n) { " + strings.Repeat("#pragma omp parallel\n", k) + "return n; }"
		}, 1 << 16},
	}
	for _, s := range shapes {
		if _, err := ParseFile("deep.c", s.src(s.at)); err != nil {
			t.Errorf("%s at the bound: %v", s.name, err)
		}
		if s.name == "pragmas" {
			continue // ignored pragmas do not nest
		}
		_, err := ParseFile("deep.c", s.src(s.at+1))
		var perr *Error
		if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "nesting deeper than") || perr.Pos.Line != 1 || perr.Pos.Col == 0 {
			t.Errorf("%s one level past the bound: got %v, want a positioned nesting error", s.name, err)
		}
	}
}

// TestExprHeightBound parses operator chains, which the parser builds
// without nesting, exactly at MaxExprHeight and one level past it: a
// chain of k operators over k+1 leaves is k+1 high.
func TestExprHeightBound(t *testing.T) {
	shapes := map[string]string{"additive": "+n", "multiplicative": "*n", "logical": "||n", "relational": "<n", "postfix": "[0]"}
	for name, op := range shapes {
		src := func(k int) string { return "int f(int n) { return n" + strings.Repeat(op, k) + "; }" }
		if _, err := ParseFile("long.c", src(MaxExprHeight-1)); err != nil {
			t.Errorf("%s chain at the bound: %v", name, err)
		}
		_, err := ParseFile("long.c", src(MaxExprHeight))
		var perr *Error
		if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "expression deeper than") || perr.Pos.Col == 0 {
			t.Errorf("%s chain one level past the bound: got %v, want a positioned height error", name, err)
		}
	}
}
