package lint

import (
	"go/ast"
	"go/token"
)

// Multovf flags raw `+`/`*` arithmetic (and `+=`/`*=`) on count-typed
// int64 values inside the model-evaluation packages. PR 4's silent
// multiplicity overflow shipped exactly this way: at dgemm sweep sizes
// (n^3 flops) unchecked accumulation wrapped negative and the garbage
// landed in every cache built on top. All count accumulation must go
// through the overflow-checked helpers — addChecked, mulChecked,
// accumInto, Metrics.Add — which return model.ErrOverflow instead of
// wrapping.
var Multovf = &Analyzer{
	Name: "multovf",
	Doc: "raw +/* arithmetic on count-typed int64 values in internal/model and " +
		"internal/metrics; route accumulation through addChecked/mulChecked/accumInto " +
		"(PR 4's silent multiplicity overflow)",
	Run: runMultovf,
}

// multovfScope is the package set whose int64 counts are load-bearing.
var multovfScope = map[string]bool{
	"mira/internal/model":   true,
	"mira/internal/metrics": true,
}

// multovfHelpers are the sanctioned overflow-checked primitives; the raw
// arithmetic *inside* them is the one place it belongs.
var multovfHelpers = map[string]bool{
	"addChecked": true,
	"mulChecked": true,
	"accumInto":  true,
	"roundMult":  true,
}

// countFields are the struct fields and indexed collections that hold
// instruction counts; an operand mentioning one marks the expression as
// count arithmetic.
var countFields = map[string]bool{
	"Flops":      true,
	"Instrs":     true,
	"ByCategory": true,
	"Counts":     true,
	"Ops":        true,
	"N":          true, // ir.OpN, one opcode's count in a site's Ops
}

func runMultovf(pass *Pass) error {
	if !multovfScope[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || multovfHelpers[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.BinaryExpr:
					if e.Op != token.ADD && e.Op != token.MUL {
						return true
					}
					t, ok := pass.TypesInfo.Types[e]
					if !ok || !isInt64(t.Type) {
						return true
					}
					if isCountExpr(e.X) || isCountExpr(e.Y) {
						pass.Reportf(e.OpPos,
							"raw %q on count-typed int64 (%s); use addChecked/mulChecked/accumInto so overflow returns ErrOverflow instead of wrapping",
							e.Op.String(), countOperand(e.X, e.Y))
					}
				case *ast.AssignStmt:
					if e.Tok != token.ADD_ASSIGN && e.Tok != token.MUL_ASSIGN {
						return true
					}
					for _, lhs := range e.Lhs {
						t, ok := pass.TypesInfo.Types[lhs]
						if !ok || !isInt64(t.Type) {
							continue
						}
						if isCountExpr(lhs) || (len(e.Rhs) == 1 && isCountExpr(e.Rhs[0])) {
							pass.Reportf(e.TokPos,
								"raw %q on count-typed int64 (%s); use addChecked/mulChecked/accumInto so overflow returns ErrOverflow instead of wrapping",
								e.Tok.String(), exprText(lhs))
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

// isCountExpr reports whether e mentions a count field: Metrics.Flops,
// site.Instrs, m.ByCategory[c], sc.Counts[cat], an opcode's c.N in a .Ops list,
// unwrapping parens, unary ops, and nested arithmetic.
func isCountExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return countFields[x.Sel.Name]
	case *ast.IndexExpr:
		return isCountExpr(x.X)
	case *ast.UnaryExpr:
		return isCountExpr(x.X)
	case *ast.BinaryExpr:
		return isCountExpr(x.X) || isCountExpr(x.Y)
	case *ast.StarExpr:
		return isCountExpr(x.X)
	}
	return false
}

// countOperand names whichever operand is the count expression, for the
// diagnostic.
func countOperand(x, y ast.Expr) string {
	if isCountExpr(x) {
		return exprText(x)
	}
	return exprText(y)
}

// exprText renders a short description of an expression for diagnostics.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.UnaryExpr:
		return x.Op.String() + exprText(x.X)
	case *ast.BinaryExpr:
		return exprText(x.X) + x.Op.String() + exprText(x.Y)
	}
	return "expression"
}
