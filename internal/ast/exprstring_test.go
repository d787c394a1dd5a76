package ast_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mira/internal/ast"
	"mira/internal/benchprogs"
	"mira/internal/parser"
	"mira/internal/token"
)

// fmtExprString is the fmt-based renderer that ExprString replaced. It is
// kept as the oracle: ExprString must produce its bytes for every tree.
func fmtExprString(e ast.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ast.Ident:
		return x.Name
	case *ast.IntLit:
		return fmt.Sprintf("%d", x.Value)
	case *ast.FloatLit:
		s := fmt.Sprintf("%g", x.Value)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *ast.BoolLit:
		return fmt.Sprintf("%t", x.Value)
	case *ast.StringLit:
		return fmt.Sprintf("%q", x.Value)
	case *ast.BinaryExpr:
		return fmt.Sprintf("%s %s %s", fmtExprString(x.X), x.Op, fmtExprString(x.Y))
	case *ast.UnaryExpr:
		if x.Postfix {
			return fmtExprString(x.X) + x.Op.String()
		}
		return x.Op.String() + fmtExprString(x.X)
	case *ast.AssignExpr:
		return fmt.Sprintf("%s %s %s", fmtExprString(x.LHS), x.Op, fmtExprString(x.RHS))
	case *ast.CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = fmtExprString(a)
		}
		return fmt.Sprintf("%s(%s)", fmtExprString(x.Fun), strings.Join(args, ", "))
	case *ast.IndexExpr:
		return fmt.Sprintf("%s[%s]", fmtExprString(x.X), fmtExprString(x.Index))
	case *ast.MemberExpr:
		sep := "."
		if x.Arrow {
			sep = "->"
		}
		return fmtExprString(x.X) + sep + x.Sel
	case *ast.ParenExpr:
		return "(" + fmtExprString(x.X) + ")"
	case *ast.CondExpr:
		return fmt.Sprintf("%s ? %s : %s", fmtExprString(x.Cond), fmtExprString(x.Then), fmtExprString(x.Else))
	}
	return "?"
}

// compareRenderings checks ExprString against the oracle on every
// expression node of f and returns how many it compared.
func compareRenderings(t *testing.T, f *ast.File) int {
	t.Helper()
	n := 0
	ast.Walk(f, func(node ast.Node) bool {
		if e, ok := node.(ast.Expr); ok {
			n++
			if got, want := ast.ExprString(e), fmtExprString(e); got != want {
				t.Errorf("ExprString = %q, fmt renders %q", got, want)
			}
		}
		return true
	})
	return n
}

func TestExprStringMatchesFmt(t *testing.T) {
	examples, err := benchprogs.ExampleSources("../../examples")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range append(benchprogs.Corpus(), examples...) {
		f, err := parser.ParseFile(s.Name+".c", s.Src)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		total += compareRenderings(t, f)
	}
	if total == 0 {
		t.Fatal("corpus has no expressions")
	}
	// Trees the parser cannot produce: non-finite and signed-zero floats,
	// escapes in strings, missing operands.
	id := &ast.Ident{Name: "x"}
	for _, e := range []ast.Expr{
		nil,
		&ast.FloatLit{Value: math.Inf(1)},
		&ast.FloatLit{Value: math.Inf(-1)},
		&ast.FloatLit{Value: math.NaN()},
		&ast.FloatLit{Value: math.Copysign(0, -1)},
		&ast.FloatLit{Value: 1e21},
		&ast.FloatLit{Value: 5e-324},
		&ast.IntLit{Value: math.MinInt64},
		&ast.StringLit{Value: "a\"b\\c\n\x00é "},
		&ast.BoolLit{Value: false},
		&ast.BinaryExpr{X: nil, Op: token.PLUS, Y: id},
		&ast.UnaryExpr{Op: token.INC, X: id, Postfix: true},
		&ast.CallExpr{Fun: id},
		&ast.MemberExpr{X: id, Sel: "f", Arrow: true},
		&ast.CondExpr{Cond: id, Then: &ast.IntLit{Value: 1}, Else: &ast.FloatLit{Value: 2}},
	} {
		if got, want := ast.ExprString(e), fmtExprString(e); got != want {
			t.Errorf("ExprString = %q, fmt renders %q", got, want)
		}
	}
}

// FuzzExprString parses arbitrary MiniC and compares ExprString with the
// fmt-based oracle on every expression of the parsed file.
func FuzzExprString(f *testing.F) {
	for _, s := range benchprogs.Bundled() {
		f.Add(s.Src)
	}
	f.Add(`void f(double *a, int n) { a[n] = 1e5 + 2.0 * -a[n - 1] / 3.25e-7; s.x->y = "q\"\n"; n++; --n; }`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8<<10 {
			t.Skip("source beyond 8 KiB")
		}
		file, err := parser.ParseFile("fuzz.c", src)
		if err != nil {
			return
		}
		compareRenderings(t, file)
	})
}
