package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Timeinj flags direct wall-clock calls in internal/cluster. PR 8's
// breaker tests were deterministic only because every time-dependent
// component (Breaker, health registry, peer store) reads the clock
// through an injectable `now func() time.Time`; a raw time.Now buried
// in a request path reintroduces the wall-clock flake class those
// tests were built to kill.
//
// Flagged: calls to time.Now, time.Since, time.Until, time.NewTimer,
// time.NewTicker, time.After, time.Tick, and time.AfterFunc anywhere in
// mira/internal/cluster. Referencing time.Now as a *value* stays legal:
// `now = time.Now` is exactly how constructors default the injectable
// clock, and that assignment is the sanctioned pattern, not a call.
// time.Sleep is deliberately not flagged — retry backoff sleeps real
// time by design and tests shrink the durations instead.
var Timeinj = &Analyzer{
	Name: "timeinj",
	Doc: "direct time.Now/Since/NewTimer calls in internal/cluster; route them " +
		"through the component's injectable clock (the wall-clock flake class " +
		"PR 8's deterministic breaker tests eliminated)",
	Run: runTimeinj,
}

// timeinjScope is the package set whose clocks must be injectable.
var timeinjScope = map[string]bool{
	"mira/internal/cluster": true,
}

// timeinjBanned is the set of time-package functions whose direct call
// reads (or schedules against) the wall clock.
var timeinjBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"After":     true,
	"Tick":      true,
	"AfterFunc": true,
}

func runTimeinj(pass *Pass) error {
	if !timeinjScope[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !timeinjBanned[fn.Name()] {
				return true
			}
			hint := "read the component's injectable clock (now func() time.Time) instead"
			if strings.HasPrefix(fn.Name(), "New") || fn.Name() == "After" || fn.Name() == "Tick" || fn.Name() == "AfterFunc" {
				hint = "derive deadlines from the component's injectable clock instead"
			}
			pass.Reportf(call.Pos(),
				"direct time.%s call in internal/cluster; %s so tests stay deterministic",
				fn.Name(), hint)
			return true
		})
	}
	return nil
}
