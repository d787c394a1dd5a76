package lint

import (
	"go/ast"
	"go/types"
)

// Goroleak requires every `go` statement in the engine, cluster, and
// serve packages to be tied to a lifecycle: the spawned code must
// observe a context, participate in a WaitGroup, or communicate over a
// channel (a done channel, a bounded queue, a result send). PR 5 and
// PR 8 built the bounded-lifetime discipline this encodes — the
// engine's sweep workers join a WaitGroup, the peer store's replicate
// loop selects on its done channel — and a goroutine with none of these
// is unjoinable: it outlives its owner, leaks on shutdown, and turns
// clean test exits into hangs.
//
// A `go func() {...}()` is judged by its literal's body (and arguments).
// A `go s.worker()` is judged by the callee: if the callee's body shows
// lifecycle evidence, the analyzer exports a LifecycleBound fact on it,
// so spawns of functions defined in dependency packages are checked
// across package boundaries through the shared fact store.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc: "go statements in engine/cluster/serve not tied to a ctx, WaitGroup, " +
		"or channel; unjoinable goroutines outlive their owner and hang " +
		"shutdown (the bounded-lifetime discipline of the sweep workers and " +
		"the peer replicate loop)",
	Run:       runGoroleak,
	FactTypes: []Fact{(*LifecycleBound)(nil)},
}

// LifecycleBound marks a function whose body shows lifecycle evidence:
// spawning it with `go` is sanctioned.
type LifecycleBound struct {
	// Evidence names what bounds the lifetime ("selects on a channel",
	// "joins a WaitGroup", ...), for diagnostics and debugging.
	Evidence string
}

// AFact marks LifecycleBound as a fact type.
func (*LifecycleBound) AFact() {}

// goroleakScope is the package set whose goroutines must be bounded.
// Facts are exported from every analyzed package regardless, so a
// scoped package spawning a dependency's function can see its evidence.
var goroleakScope = map[string]bool{
	"mira/internal/engine":  true,
	"mira/internal/cluster": true,
	"mira/cmd/mira-serve":   true,
}

func runGoroleak(pass *Pass) error {
	// Fact export runs everywhere (dependencies included): record every
	// function whose body shows lifecycle evidence.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if ev := lifecycleEvidence(pass.TypesInfo, fd.Body); ev != "" {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					pass.ExportObjectFact(obj, &LifecycleBound{Evidence: ev})
				}
			}
		}
	}

	if !goroleakScope[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			// Lifecycle material passed as an argument (a ctx, a
			// channel, a *sync.WaitGroup) counts for any spawn form.
			for _, arg := range gs.Call.Args {
				if isLifecycleValue(pass.TypesInfo, arg) {
					return true
				}
			}
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				if lifecycleEvidence(pass.TypesInfo, fun.Body) == "" {
					pass.Reportf(gs.Pos(),
						"goroutine is not tied to a ctx, WaitGroup, or channel; it cannot be joined or shut down")
				}
			default:
				obj := calleeObject(pass.TypesInfo, gs.Call)
				if obj == nil {
					pass.Reportf(gs.Pos(),
						"cannot resolve the spawned function; tie the goroutine to a ctx, WaitGroup, or channel")
					return true
				}
				var fact LifecycleBound
				if !pass.ImportObjectFact(obj, &fact) {
					pass.Reportf(gs.Pos(),
						"goroutine runs %s, which is not tied to a ctx, WaitGroup, or channel; it cannot be joined or shut down",
						obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

// calleeObject resolves the function or method a call invokes.
func calleeObject(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// lifecycleEvidence scans a function body for proof its lifetime is
// bounded, returning a short description of the first evidence found:
// a context.Context in use, WaitGroup participation, or any channel
// operation (send, receive, or select — a done channel, a bounded
// queue, a result send all qualify).
func lifecycleEvidence(info *types.Info, body *ast.BlockStmt) string {
	evidence := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if evidence != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			evidence = "sends on a channel"
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				evidence = "receives from a channel"
			}
		case *ast.SelectStmt:
			evidence = "selects on a channel"
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					evidence = "ranges over a channel"
				}
			}
		case *ast.CallExpr:
			if fn := calleeObject(info, x); fn != nil {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					if named := recvNamed(sig.Recv().Type()); named != nil {
						if isPkgType(named, "sync", "WaitGroup") &&
							(fn.Name() == "Done" || fn.Name() == "Add" || fn.Name() == "Wait") {
							evidence = "joins a WaitGroup"
						}
					}
				}
			}
		case *ast.Ident:
			if obj, ok := info.Uses[x].(*types.Var); ok && isContextValue(obj.Type()) {
				evidence = "observes a context"
			}
		}
		return evidence == ""
	})
	return evidence
}

// isLifecycleValue reports whether the expression's type is lifecycle
// material when handed to a spawned function: a context, a channel, or
// a *sync.WaitGroup.
func isLifecycleValue(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if isContextValue(t) {
		return true
	}
	if _, isChan := t.Underlying().(*types.Chan); isChan {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		if named, ok := p.Elem().(*types.Named); ok && isPkgType(named, "sync", "WaitGroup") {
			return true
		}
	}
	return false
}

// isContextValue reports whether t is context.Context (by type, not by
// type expression — cf. isContextType, which classifies syntax).
func isContextValue(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && isPkgType(named, "context", "Context")
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func isPkgType(named *types.Named, pkgPath, name string) bool {
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
