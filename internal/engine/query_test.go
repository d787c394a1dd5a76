package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/parser"
	"mira/internal/pbound"
	"mira/internal/sema"
)

func TestQueryKindNames(t *testing.T) {
	kinds := []engine.QueryKind{
		engine.KindStatic, engine.KindStaticExclusive, engine.KindCategories,
		engine.KindFineCategories, engine.KindRoofline, engine.KindPBound,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
		back, err := engine.ParseKind(name)
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, back, err, k)
		}
	}
	if _, err := engine.ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
	if s := engine.QueryKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range String() = %q", s)
	}
}

// TestRunMatchesDirectMethods: every query kind, evaluated as one batch,
// returns exactly what a direct model walk returns (bucketed through
// core for the category kinds), and PBound what a hand-rolled
// source-only pipeline returns.
func TestRunMatchesDirectMethods(t *testing.T) {
	e := engine.New(engine.Options{})
	a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.EnvFromInts(map[string]int64{"n": 64})
	results := a.Run(context.Background(), []engine.Query{
		{Fn: "scale", Env: env, Kind: engine.KindStatic},
		{Fn: "scale", Env: env, Kind: engine.KindStaticExclusive},
		{Fn: "scale", Env: env, Kind: engine.KindCategories},
		{Fn: "scale", Env: env, Kind: engine.KindFineCategories},
		{Fn: "scale", Env: env, Kind: engine.KindRoofline},
		{Fn: "scale", Env: env, Kind: engine.KindPBound},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d (%s): %v", i, r.Query.Kind, r.Err)
		}
	}

	met, _ := a.Model.Evaluate("scale", env)
	if *results[0].Metrics != met {
		t.Errorf("static: %+v != %+v", *results[0].Metrics, met)
	}
	excl, _ := a.Model.EvaluateExclusive("scale", env)
	if *results[1].Metrics != excl {
		t.Errorf("exclusive: %+v != %+v", *results[1].Metrics, excl)
	}
	ops, _ := a.Model.EvaluateOpcodes("scale", env)
	cats := core.BucketTableII(ops)
	if !reflect.DeepEqual(results[2].Categories, cats) {
		t.Errorf("categories: %v != %v", results[2].Categories, cats)
	}
	fine := core.BucketFine(a.Arch, ops)
	if !reflect.DeepEqual(results[3].Categories, fine) {
		t.Errorf("fine: %v != %v", results[3].Categories, fine)
	}
	if results[4].Roofline.Function != "scale" || results[4].Roofline.InstrAI <= 0 {
		t.Errorf("roofline: %+v", results[4].Roofline)
	}

	// PBound must match a hand-rolled source-only pipeline.
	file, err := parser.ParseFile("scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pbound.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.EvalCounts("scale", env)
	if err != nil {
		t.Fatal(err)
	}
	if *results[5].PBound != want {
		t.Errorf("pbound: %+v != %+v", *results[5].PBound, want)
	}
}

// TestRunPerQueryErrors: bad cells fail alone; the batch completes.
func TestRunPerQueryErrors(t *testing.T) {
	e := engine.New(engine.Options{})
	a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.EnvFromInts(map[string]int64{"n": 8})
	results := a.Run(context.Background(), []engine.Query{
		{Fn: "nosuch", Env: env, Kind: engine.KindStatic},
		{Fn: "scale", Env: nil, Kind: engine.KindStatic}, // n unbound
		{Fn: "scale", Env: env, Kind: engine.QueryKind(42)},
		{Fn: "scale", Env: env, Kind: engine.KindRoofline, Arch: "pdp11"},
		{Fn: "scale", Env: env, Kind: engine.KindStatic},
	})
	for i := 0; i < 4; i++ {
		if results[i].Err == nil {
			t.Errorf("query %d: expected error", i)
		}
	}
	if results[4].Err != nil || results[4].Metrics.FPI() != 8 {
		t.Errorf("healthy trailing query: %+v", results[4])
	}
}

// TestRooflineArchOverride: the per-query Arch field changes the machine
// whose roofline the function lands on.
func TestRooflineArchOverride(t *testing.T) {
	e := engine.New(engine.Options{})
	a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.EnvFromInts(map[string]int64{"n": 1000})
	res := a.Run(context.Background(), []engine.Query{
		{Fn: "scale", Env: env, Kind: engine.KindRoofline, Arch: "arya"},
		{Fn: "scale", Env: env, Kind: engine.KindRoofline, Arch: "frankenstein"},
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("roofline errors: %v, %v", res[0].Err, res[1].Err)
	}
	if res[0].Roofline.RidgeAI == res[1].Roofline.RidgeAI {
		t.Error("arch override had no effect on the ridge point")
	}
	if res[0].Roofline.InstrAI != res[1].Roofline.InstrAI {
		t.Error("instruction AI is machine-independent and must not change")
	}

	// An in-process description value — modified, so Lookup could never
	// reproduce it — must be honored verbatim, taking precedence over
	// the named form.
	custom := arch.Arya()
	custom.MemBandwidthGBs *= 2
	cres := a.RunOne(context.Background(), engine.Query{
		Fn: "scale", Env: env, Kind: engine.KindRoofline, Arch: "frankenstein", ArchDesc: custom,
	})
	if cres.Err != nil {
		t.Fatal(cres.Err)
	}
	if want := custom.PeakGFlops() / custom.MemBandwidthGBs; cres.Roofline.RidgeAI != want {
		t.Errorf("custom description ignored: ridge %v, want %v", cres.Roofline.RidgeAI, want)
	}
}

// TestRunCancelledContext: a cancelled ctx yields per-query
// context.Canceled errors for every unevaluated cell, immediately.
func TestRunCancelledContext(t *testing.T) {
	e := engine.New(engine.Options{})
	a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := expr.EnvFromInts(map[string]int64{"n": 8})
	results := a.Run(ctx, []engine.Query{
		{Fn: "scale", Env: env, Kind: engine.KindStatic},
		{Fn: "scale", Env: env, Kind: engine.KindPBound},
	})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("query %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if hits, misses := a.EvalStats(); hits != 0 || misses != 0 {
		t.Errorf("cancelled batch still evaluated: %d hits / %d misses", hits, misses)
	}
}

// TestRunAllQueryMatrix: an engine-level matrix over two programs —
// shared compiles, per-job errors, key-based references.
func TestRunAllQueryMatrix(t *testing.T) {
	e := engine.New(engine.Options{Workers: 4})
	env := expr.EnvFromInts(map[string]int64{"n": 16})
	a, err := e.AnalyzeCtx(context.Background(), "seed.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []engine.QueryJob{
		{Name: "a.c", Source: scaleSrc, Query: engine.Query{Fn: "scale", Env: env, Kind: engine.KindStatic}},
		{Name: "b.c", Source: scaleSrc, Query: engine.Query{Fn: "scale", Env: env, Kind: engine.KindCategories}},
		{Name: "c.c", Source: axpySrc, Query: engine.Query{Fn: "axpy", Env: env, Kind: engine.KindStatic}},
		{Key: a.Key(), Query: engine.Query{Fn: "scale", Env: env, Kind: engine.KindPBound}},
		{Key: "deadbeef", Query: engine.Query{Fn: "scale", Env: env, Kind: engine.KindStatic}},
		{Query: engine.Query{Fn: "scale", Env: env, Kind: engine.KindStatic}},
		{Name: "bad.c", Source: "int f( {", Query: engine.Query{Fn: "f", Env: env, Kind: engine.KindStatic}},
	}
	results := e.RunAll(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[0].Metrics.FPI() != 16 {
		t.Errorf("job 0: %+v, %v", results[0].Metrics, results[0].Err)
	}
	if results[1].Err != nil || len(results[1].Categories) == 0 {
		t.Errorf("job 1: %v", results[1].Err)
	}
	if results[2].Err != nil || results[2].Metrics.FPI() != 32 {
		t.Errorf("job 2: %+v, %v", results[2].Metrics, results[2].Err)
	}
	if results[3].Err != nil || results[3].PBound == nil {
		t.Errorf("job 3 (by key): %v", results[3].Err)
	}
	for i := 4; i <= 6; i++ {
		if results[i].Err == nil {
			t.Errorf("job %d: expected error", i)
		}
	}
	// scaleSrc appeared under seed.c, a.c, and b.c: one compile total.
	if _, misses := e.Stats(); misses != 3 { // seed + axpy + bad
		t.Errorf("misses = %d, want 3 (scale compiled once, axpy once, bad once)", misses)
	}
}

// TestUnknownFunctionNamesDoNotGrowHeap: a query or sweep naming a
// function the program does not define fails with the model's lookup
// error and retains nothing — a client naming random functions (one
// /query cell or /sweep spec each) cannot grow a resident engine.
func TestUnknownFunctionNamesDoNotGrowHeap(t *testing.T) {
	e := engine.New(engine.Options{})
	a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	env := expr.EnvFromInts(map[string]int64{"n": 8})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 100_000; i++ {
		fn := fmt.Sprintf("nosuch_%d", i)
		r := a.RunOne(ctx, engine.Query{Fn: fn, Env: env, Kind: engine.QueryKind(i % 6)})
		if want := fmt.Sprintf("model: no function %q", fn); r.Err == nil || r.Err.Error() != want {
			t.Fatalf("RunOne(%s) err = %v, want %s", fn, r.Err, want)
		}
	}
	for i := 0; i < 10_000; i++ {
		fn := fmt.Sprintf("nosweep_%d", i)
		_, err := a.Sweep(ctx, engine.SweepSpec{Fn: fn, Base: map[string]int64{"n": 8}})
		if want := fmt.Sprintf("model: no function %q", fn); err == nil || err.Error() != want {
			t.Fatalf("Sweep(%s) err = %v, want %s", fn, err, want)
		}
	}
	after := heap()
	runtime.KeepAlive(a)
	if grown := int64(after) - int64(before); grown > 2<<20 {
		t.Errorf("110k unknown-function calls grew the heap by %.1f MiB, want < 2 MiB", float64(grown)/(1<<20))
	}
}
