package parser

import (
	"fmt"
	"math"
	"testing"

	"mira/internal/ast"
	"mira/internal/lexer"
	"mira/internal/token"
)

// sscanfLiteral is the literal conversion the parser used before it
// called strconv: fmt.Sscanf with %d or %g on the token's text. It is the
// oracle for which literals the parser accepts and what they are worth.
func sscanfLiteral(tok token.Token) (ast.Expr, bool) {
	if tok.Kind == token.INTLIT {
		var v int64
		if _, err := fmt.Sscanf(tok.Lit, "%d", &v); err != nil {
			return nil, false
		}
		return &ast.IntLit{Value: v}, true
	}
	var v float64
	if _, err := fmt.Sscanf(tok.Lit, "%g", &v); err != nil {
		return nil, false
	}
	return &ast.FloatLit{Value: v}, true
}

// literalCases are the numeric spellings checked against the oracle:
// leading zeros, the int64 boundary, float forms with and without digits
// after the point, exponents in range and out of it, and C suffixes.
func literalCases() []string {
	cases := []string{
		"0", "007", "010", "08", "0000000000000000000001", "10", "09.5",
		"9223372036854775807", "9223372036854775808", "99999999999999999999",
		"1.", "1.5", ".5", "00.5", "1e5", "1E+5", "1e-5", "1e999", "1e-999",
		"1.7976931348623157e308", "1.8e308", "4.9e-324", "2e-324",
		"1f", "1.5f", "2.0F", "1e5f", "1L", "10u", "10UL", "3ll", "1.5L",
	}
	for _, m := range []string{"0", "1", "12345678901234567890", "9223372036854775807"} {
		for _, frac := range []string{"", ".", ".5", ".0001"} {
			for _, exp := range []string{"", "e5", "E+5", "e-5", "e308", "e309", "e-400"} {
				for _, suf := range []string{"", "f", "L", "u"} {
					cases = append(cases, m+frac+exp+suf)
				}
			}
		}
	}
	return cases
}

func TestLiteralParsingMatchesSscanf(t *testing.T) {
	for _, lit := range literalCases() {
		toks := lexer.New(lit).All()
		if len(toks) != 2 || (toks[0].Kind != token.INTLIT && toks[0].Kind != token.FLOATLIT) {
			t.Fatalf("%s: lexes as %v, want one numeric token", lit, toks)
		}
		want, wantOK := sscanfLiteral(toks[0])
		f, err := ParseFile("lit.c", "double f() { return "+lit+"; }")
		if gotOK := err == nil; gotOK != wantOK {
			t.Errorf("%s: parse error %v, Sscanf accepts: %v", lit, err, wantOK)
			continue
		}
		if !wantOK {
			continue
		}
		got := f.Funcs()[0].Body.Stmts[0].(*ast.ReturnStmt).X
		switch w := want.(type) {
		case *ast.IntLit:
			if g, ok := got.(*ast.IntLit); !ok || g.Value != w.Value {
				t.Errorf("%s: parsed %#v, Sscanf gives int %d", lit, got, w.Value)
			}
		case *ast.FloatLit:
			if g, ok := got.(*ast.FloatLit); !ok || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Errorf("%s: parsed %#v, Sscanf gives float %v", lit, got, w.Value)
			}
		}
	}
}
