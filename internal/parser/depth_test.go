package parser

import (
	"errors"
	"strings"
	"testing"

	"mira/internal/lexer"
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

// TestRefusalReadsBoundedPrefix checks that the parser stops lexing at
// its first error: a multi-megabyte source refused near its start is
// read only up to a few tokens past the refusal, wherever its end is.
func TestRefusalReadsBoundedPrefix(t *testing.T) {
	const k = 1 << 20
	tail := " | " + strings.Repeat("n + ", k) // a lexical error, then 4 MiB
	shapes := map[string]string{
		"parentheses": "int f(int n) { return " + strings.Repeat("(", k) + "n" + strings.Repeat(")", k) + "; }",
		"blocks":      "int f(int n) { " + strings.Repeat("{", k) + strings.Repeat("}", k) + " return n; }",
		"unary":       "int f(int n) { return " + strings.Repeat("-", k) + "n; }",
		"syntax":      "int f(int n) { return n n; }" + tail,
	}
	for name, src := range shapes {
		_, lx, err := parseLexed("big.c", src)
		var perr *Error
		if !errors.As(err, &perr) {
			t.Errorf("%s: got %v, want a parse error", name, err)
			continue
		}
		if off := lx.Offset(); off > 2*MaxNesting+64 {
			t.Errorf("%s: lexed %d of %d bytes before refusing at %s", name, off, len(src), perr.Pos)
		}
	}
}

// TestFirstErrorInSourceOrder checks which of a lexical and a parse error
// ParseFile reports: the one earlier in the source, the lexical one on a
// tie (an illegal character is also the token the parser cannot use).
func TestFirstErrorInSourceOrder(t *testing.T) {
	cases := []struct {
		src     string
		lexical bool
		col     int
	}{
		{"int f(int n) { return n | n; }", true, 25},        // '|' is both
		{"int f(int n) { @ return n n; }", true, 16},        // lexical first
		{"int f(int n) { return n n; } @", false, 25},       // parse first
		{"int f(int n) { return n; } /* open", true, 28},    // lexical only
		{"int f(int n) { return n n; } /* open", false, 25}, // never reached
	}
	for _, c := range cases {
		_, err := ParseFile("e.c", c.src)
		var lerr *lexer.Error
		var perr *Error
		switch {
		case c.lexical && errors.As(err, &lerr) && lerr.Pos.Col == c.col:
		case !c.lexical && errors.As(err, &perr) && perr.Pos.Col == c.col:
		default:
			t.Errorf("%q: got %v, want a lexical=%t error at column %d", c.src, err, c.lexical, c.col)
		}
	}
}
