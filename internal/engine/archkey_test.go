package engine_test

import (
	"context"
	"testing"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
)

// nearTwin returns two descriptions differing in exactly one parameter
// (memory bandwidth) — the minimal pair that must never share a cache
// entry, a memo cell, or a roofline result anywhere in the system.
func nearTwin() (*arch.Description, *arch.Description) {
	d1 := arch.Arya()
	d2 := arch.Arya()
	d2.MemBandwidthGBs = d1.MemBandwidthGBs * 2
	return d1, d2
}

// TestArchContentKeyPartitionsCaches is the end-to-end no-poisoning
// regression test at the engine layer: two engines whose architectures
// differ in a single parameter — same name, same everything else — must
// produce distinct content-hash cache keys, distinct function-content
// keys, distinct entries in a shared persistent store, and distinct
// roofline results.
func TestArchContentKeyPartitionsCaches(t *testing.T) {
	d1, d2 := nearTwin()
	store := engine.NewMemoryStore()
	e1 := engine.New(engine.Options{Core: core.Options{Arch: d1}, Store: store})
	e2 := engine.New(engine.Options{Core: core.Options{Arch: d2}, Store: store})

	if e1.Key(scaleSrc) == e2.Key(scaleSrc) {
		t.Fatal("one-parameter arch twins share a content-hash cache key")
	}

	a1, err := e1.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e2.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if k1, k2 := a1.FuncKeys["scale"], a2.FuncKeys["scale"]; k1 == "" || k1 == k2 {
		t.Errorf("function keys %q vs %q: arch twins must not share per-function entries", k1, k2)
	}
	if store.FuncLen() != 2 {
		t.Errorf("shared store holds %d entries, want 2 (one per arch)", store.FuncLen())
	}

	env := expr.EnvFromInts(map[string]int64{"n": 1000})
	q := engine.Query{Fn: "scale", Env: env, Kind: engine.KindRoofline}
	r1 := a1.RunOne(context.Background(), q)
	r2 := a2.RunOne(context.Background(), q)
	if r1.Err != nil || r2.Err != nil {
		t.Fatalf("roofline errors: %v, %v", r1.Err, r2.Err)
	}
	if r1.Roofline.RidgeAI == r2.Roofline.RidgeAI {
		t.Error("roofline served across arch twins: ridge points are equal")
	}

	// A second engine over the same description warm-starts from the
	// shared store — the partition is by content, not by engine — and
	// the warm path writes no third entry.
	e3 := engine.New(engine.Options{Core: core.Options{Arch: d1}, Store: store})
	a3, err := e3.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d := a3.Delta(); d == nil || len(d.Compiled) != 0 {
		t.Errorf("warm restart delta %+v, want every function restored from the store", d)
	}
	if store.FuncLen() != 2 {
		t.Errorf("store holds %d entries after a warm restart, want 2 still", store.FuncLen())
	}
}

// TestArchDescMemoPartition: within ONE analysis, per-query ArchDesc
// overrides differing in one parameter must occupy distinct memo
// entries — a memo hit for d2 after querying d1 would be poisoning.
func TestArchDescMemoPartition(t *testing.T) {
	d1, d2 := nearTwin()
	e := engine.New(engine.Options{})
	a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.EnvFromInts(map[string]int64{"n": 1000})
	run := func(d *arch.Description) *engine.QueryResult {
		r := a.RunOne(context.Background(), engine.Query{
			Fn: "scale", Env: env, Kind: engine.KindRoofline, ArchDesc: d,
		})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return &r
	}
	first := run(d1)
	second := run(d2)
	if first.Roofline.RidgeAI == second.Roofline.RidgeAI {
		t.Fatal("d2 roofline served from d1's memo entry")
	}
	// Re-querying d1 must reproduce the original — and as a memo hit.
	hitsBefore, _ := a.EvalStats()
	again := run(d1)
	if again.Roofline.RidgeAI != first.Roofline.RidgeAI {
		t.Error("d1 re-query changed after d2 was queried")
	}
	if hitsAfter, _ := a.EvalStats(); hitsAfter == hitsBefore {
		t.Error("d1 re-query did not hit the memo")
	}

	// Fine categories ride the same arch-keyed memo: both twins must
	// resolve (identical taxonomies, so equal counts) without error.
	for _, d := range []*arch.Description{d1, d2} {
		r := a.RunOne(context.Background(), engine.Query{
			Fn: "scale", Env: env, Kind: engine.KindFineCategories, ArchDesc: d,
		})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// TestRegistryResolvedQueries: named arch overrides resolve through the
// injected registry, including custom registered descriptions, and the
// unknown-name error lists the registry's contents.
func TestRegistryResolvedQueries(t *testing.T) {
	reg := arch.NewRegistry()
	custom := arch.Generic()
	custom.Name = "testbox"
	custom.MemBandwidthGBs = 10
	if err := reg.Register(custom); err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Options{Registry: reg})
	if e.Registry().Len() != reg.Len() {
		t.Fatal("injected registry not used")
	}
	a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.EnvFromInts(map[string]int64{"n": 1000})
	r := a.RunOne(context.Background(), engine.Query{
		Fn: "scale", Env: env, Kind: engine.KindRoofline, Arch: "testbox",
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if want := custom.PeakGFlops() / custom.MemBandwidthGBs; r.Roofline.RidgeAI != want {
		t.Errorf("ridge %v, want %v (custom registered description)", r.Roofline.RidgeAI, want)
	}

	// Sweeps resolve through the same registry.
	res, err := a.Sweep(context.Background(), engine.SweepSpec{
		Fn:   "scale",
		Kind: engine.KindRoofline,
		Base: map[string]int64{"n": 64},
		Archs: []string{
			"testbox", "skylake",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Err != nil || res.Points[1].Err != nil {
		t.Fatalf("sweep points: %+v", res.Points)
	}
	if res.Points[0].Roofline.RidgeAI == res.Points[1].Roofline.RidgeAI {
		t.Error("sweep archs resolved to the same machine")
	}
}
