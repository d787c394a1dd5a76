package lint

import (
	"go/ast"
)

// Ctxflow guards the context plumbing PR 3 threaded end to end: inside
// the request-path packages (engine, report, the serve daemon), minting
// a fresh context with context.Background()/context.TODO() severs the
// caller's cancellation — a dropped client keeps burning workers. The
// context must arrive as a parameter and be forwarded. The one allowed
// escape is func main (the process root owns the root context); a
// ctx-free compatibility shim is flagged like any other function. It
// also enforces context-first parameter order on exported
// functions, so call sites read uniformly.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "context.Background()/TODO() minted inside request-path packages " +
		"(internal/engine, internal/report, cmd/mira-serve) severs caller " +
		"cancellation (the PR 3 dropped-context bug class); contexts must be " +
		"accepted as the first parameter and forwarded",
	Run: runCtxflow,
}

// ctxflowScope is the request-path package set.
var ctxflowScope = map[string]bool{
	"mira/internal/engine": true,
	"mira/internal/report": true,
	"mira/cmd/mira-serve":  true,
}

func runCtxflow(pass *Pass) error {
	if !ctxflowScope[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFirst(pass, fd)
			if fd.Name.Name == "main" && fd.Recv == nil && pass.Pkg.Name() == "main" {
				continue // the process root mints the root context
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, name := range [...]string{"Background", "TODO"} {
					if isPkgFunc(pass.TypesInfo, call, "context", name) {
						pass.Reportf(call.Pos(),
							"context.%s() inside a request path severs caller cancellation; accept a context.Context parameter and forward it",
							name)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkCtxFirst flags exported functions that take a context.Context
// anywhere but first.
func checkCtxFirst(pass *Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fd.Type.Params.List {
		names := len(field.Names)
		if names == 0 {
			names = 1
		}
		if isContextType(pass, field.Type) && pos > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter of exported %s", fd.Name.Name)
		}
		pos += names
	}
}

// isContextType reports whether the type expression denotes
// context.Context.
func isContextType(pass *Pass, e ast.Expr) bool {
	t, ok := pass.TypesInfo.Types[e]
	return ok && t.Type.String() == "context.Context"
}
