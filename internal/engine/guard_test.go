package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/rational"
)

// panicPipeline hand-builds a pipeline whose model panics on evaluation:
// a FloorDiv with a zero divisor constructed directly (bypassing the
// NewFloorDiv contract check), which hits rational's division-by-zero
// panic at eval time. No source program can produce this through the
// front end — the point is that a resident service must survive even
// model state that violates the constructors' contracts.
func panicPipeline() *core.Pipeline {
	f := &model.Func{
		Name: "boom",
		Sites: []*model.Site{{
			Line: 1, Col: 1, Desc: "zero-divisor floor division",
			Ops:    []ir.OpN{{Op: ir.ADDSD, N: 1}},
			Instrs: 1,
			Mult:   expr.FloorDiv{X: expr.P("n"), D: rational.Zero},
		}},
	}
	return &core.Pipeline{
		Name:     "boom.c",
		Model:    &model.Model{SourceName: "boom.c", Order: []string{"boom"}, Funcs: map[string]*model.Func{"boom": f}},
		FuncKeys: map[string]string{"boom": "boom-key"},
	}
}

// TestEvalPanicBecomesError checks the engine boundary converts eval-time
// panics (the ISSUE's floor-division-by-zero case) into errors on both
// evaluation paths, so a hostile /query request gets a 4xx instead of
// killing the daemon.
func TestEvalPanicBecomesError(t *testing.T) {
	e := New(Options{})
	a := e.newAnalysis(panicPipeline(), "")
	env := expr.EnvFromInts(map[string]int64{"n": 7})

	ctx := context.Background()
	if err := a.RunOne(ctx, Query{Fn: "boom", Env: env}).Err; err == nil {
		t.Fatal("eval panic not converted to error")
	} else if !errors.Is(err, ErrPanicked) || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want panic conversion", err)
	}
	if err := a.RunOne(ctx, Query{Fn: "boom", Env: env, Kind: KindCategories}).Err; err == nil {
		t.Fatal("opcode eval panic not converted to error")
	}
	// The analysis must remain usable after a panic (no poisoned locks).
	if err := a.RunOne(ctx, Query{Fn: "missing", Env: env}).Err; err == nil || strings.Contains(err.Error(), "panicked") {
		t.Errorf("post-panic query err = %v, want ordinary lookup error", err)
	}
}

// TestSafelyPassesThrough checks non-panicking calls are untouched.
func TestSafelyPassesThrough(t *testing.T) {
	v, err := safely("test", func() (int, error) { return 42, nil })
	if v != 42 || err != nil {
		t.Errorf("safely = %d, %v", v, err)
	}
	_, err = safely("test", func() (int, error) {
		panic("expr: Trips requires positive step")
	})
	if err == nil || !strings.Contains(err.Error(), "Trips") {
		t.Errorf("err = %v, want wrapped panic message", err)
	}
}
