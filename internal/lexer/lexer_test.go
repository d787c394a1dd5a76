package lexer

import (
	"strings"
	"testing"

	"mira/internal/token"
)

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func scanAll(t *testing.T, src string) []token.Token {
	t.Helper()
	lx := New(src)
	toks := lx.All()
	for _, e := range lx.Errors() {
		t.Fatalf("unexpected lex error: %v", e)
	}
	return toks
}

func TestBasicTokens(t *testing.T) {
	toks := scanAll(t, "for (i = 0; i < 10; i++) { x += 1.5; }")
	want := []token.Kind{
		token.KWFOR, token.LPAREN, token.IDENT, token.ASSIGN, token.INTLIT,
		token.SEMI, token.IDENT, token.LT, token.INTLIT, token.SEMI,
		token.IDENT, token.INC, token.RPAREN, token.LBRACE, token.IDENT,
		token.PLUSEQ, token.FLOATLIT, token.SEMI, token.RBRACE, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestPositions(t *testing.T) {
	toks := scanAll(t, "int x;\n  y = 2;")
	if p := toks[0].Pos; p.Line != 1 || p.Col != 1 {
		t.Errorf("int at %v, want 1:1", p)
	}
	// y is at line 2 col 3.
	var yTok token.Token
	for _, tk := range toks {
		if tk.Kind == token.IDENT && tk.Lit == "y" {
			yTok = tk
		}
	}
	if yTok.Pos.Line != 2 || yTok.Pos.Col != 3 {
		t.Errorf("y at %v, want 2:3", yTok.Pos)
	}
}

func TestOffsets(t *testing.T) {
	src := "x += 1.5e3; /* c */ #pragma @A\n}"
	var got []string
	for _, tk := range scanAll(t, src) {
		got = append(got, src[tk.Off:tk.End])
	}
	want := []string{"x", "+=", "1.5e3", ";", "#pragma @A", "}", ""}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("token spans = %q, want %q", got, want)
	}
}

func TestComments(t *testing.T) {
	toks := scanAll(t, "a // line comment\n/* block\ncomment */ b")
	got := kinds(toks)
	want := []token.Kind{token.IDENT, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
	if toks[1].Lit != "b" || toks[1].Pos.Line != 3 {
		t.Errorf("b token = %v, want line 3", toks[1])
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		lit  string
	}{
		{"42", token.INTLIT, "42"},
		{"1.5", token.FLOATLIT, "1.5"},
		{"1e9", token.FLOATLIT, "1e9"},
		{"2.5e-3", token.FLOATLIT, "2.5e-3"},
		{"1.0f", token.FLOATLIT, "1.0"},
		{"100L", token.INTLIT, "100"},
		{".5", token.FLOATLIT, ".5"},
	}
	for _, c := range cases {
		toks := scanAll(t, c.src)
		if toks[0].Kind != c.kind || toks[0].Lit != c.lit {
			t.Errorf("%q -> %v, want %s(%q)", c.src, toks[0], c.kind, c.lit)
		}
	}
}

func TestPragmaAnnotation(t *testing.T) {
	toks := scanAll(t, "#pragma @Annotation {skip:yes}\nx = 1;")
	if toks[0].Kind != token.PRAGMA {
		t.Fatalf("first token = %v, want PRAGMA", toks[0])
	}
	if toks[0].Lit != "@Annotation {skip:yes}" {
		t.Errorf("pragma payload = %q", toks[0].Lit)
	}
}

func TestPragmaLineContinuation(t *testing.T) {
	toks := scanAll(t, "#pragma @Annotation \\\n{lp_init:x,lp_cond:y}\nz;")
	if toks[0].Kind != token.PRAGMA {
		t.Fatalf("first token = %v, want PRAGMA", toks[0])
	}
	if toks[0].Lit != "@Annotation  {lp_init:x,lp_cond:y}" {
		t.Errorf("pragma payload = %q", toks[0].Lit)
	}
	if toks[1].Kind != token.IDENT || toks[1].Lit != "z" {
		t.Errorf("token after pragma = %v", toks[1])
	}
}

func TestOperators(t *testing.T) {
	toks := scanAll(t, "a == b != c <= d >= e && f || !g a->b a.b x::y ? :")
	var ops []token.Kind
	for _, tk := range toks {
		if tk.Kind != token.IDENT && tk.Kind != token.EOF {
			ops = append(ops, tk.Kind)
		}
	}
	want := []token.Kind{
		token.EQ, token.NEQ, token.LEQ, token.GEQ, token.ANDAND, token.OROR,
		token.NOT, token.ARROW, token.DOT, token.SCOPE, token.QUESTION, token.COLON,
	}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %s, want %s", i, ops[i], want[i])
		}
	}
}

func TestStringAndCharLiterals(t *testing.T) {
	toks := scanAll(t, `"hello\n" 'a'`)
	if toks[0].Kind != token.STRINGLIT || toks[0].Lit != "hello\n" {
		t.Errorf("string = %v", toks[0])
	}
	if toks[1].Kind != token.CHARLIT || toks[1].Lit != "a" {
		t.Errorf("char = %v", toks[1])
	}
}

func TestKeywords(t *testing.T) {
	toks := scanAll(t, "class operator extern const while return")
	want := []token.Kind{
		token.KWCLASS, token.KWOPERATOR, token.KWEXTERN, token.KWCONST,
		token.KWWHILE, token.KWRETURN, token.EOF,
	}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	lx := New("a | b")
	lx.All()
	if len(lx.Errors()) == 0 {
		t.Error("expected error for single '|'")
	}
	lx = New("\"unterminated")
	lx.All()
	if len(lx.Errors()) == 0 {
		t.Error("expected error for unterminated string")
	}
	lx = New("/* unterminated")
	lx.All()
	if len(lx.Errors()) == 0 {
		t.Error("expected error for unterminated comment")
	}
}

func TestUnknownDirective(t *testing.T) {
	lx := New("#include <stdio.h>\n")
	toks := lx.All()
	if len(lx.Errors()) == 0 {
		t.Error("expected error for #include")
	}
	if toks[0].Kind != token.ILLEGAL {
		t.Errorf("token = %v, want ILLEGAL", toks[0])
	}
}
