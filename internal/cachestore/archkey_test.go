package cachestore_test

import (
	"context"
	"testing"

	"mira/internal/arch"
	"mira/internal/cachestore"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
)

// TestDiskStoreArchIsolation is the no-poisoning regression test
// through the persistent store: two engines whose architectures differ
// in exactly one parameter share one on-disk cache directory across a
// "restart", and each must warm-start from its OWN entry — the
// content-addressed keys carry the arch content key, so the twins can
// never collide on disk.
func TestDiskStoreArchIsolation(t *testing.T) {
	dir := t.TempDir()
	d1 := arch.Arya()
	d2 := arch.Arya()
	d2.MemBandwidthGBs *= 2

	env := expr.EnvFromInts(map[string]int64{"n": 1000})
	analyze := func(e *engine.Engine) (ridge float64, delta *core.Delta) {
		t.Helper()
		a, err := e.AnalyzeCtx(context.Background(), "k.c", kernelSrc)
		if err != nil {
			t.Fatal(err)
		}
		r := a.RunOne(context.Background(), engine.Query{Fn: "kernel", Env: env, Kind: engine.KindRoofline})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r.Roofline.RidgeAI, a.Delta()
	}

	open := func(d *arch.Description) (*engine.Engine, *cachestore.Disk) {
		t.Helper()
		store, err := cachestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return engine.New(engine.Options{Core: core.Options{Arch: d}, Store: store}), store
	}

	// First process: both twins compile cold and persist their artifacts
	// into the one shared directory.
	e1, _ := open(d1)
	e2, store := open(d2)
	ridge1, _ := analyze(e1)
	ridge2, _ := analyze(e2)
	if store.FuncLen() != 2 {
		t.Fatalf("store holds %d entries, want 2: arch twins share an on-disk key", store.FuncLen())
	}
	if ridge1 == ridge2 {
		t.Fatal("arch twins computed the same ridge point; the test cannot detect poisoning")
	}

	// "Restart": fresh engines over the same directory. Each must load
	// its own entry (a store hit, not a recompile) and reproduce its own
	// arch's roofline.
	for _, tc := range []struct {
		d    *arch.Description
		want float64
	}{{d1, ridge1}, {d2, ridge2}} {
		e, _ := open(tc.d)
		got, delta := analyze(e)
		if delta == nil || len(delta.Compiled) != 0 {
			t.Fatalf("warm restart missed the on-disk entry: delta %+v", delta)
		}
		if got != tc.want {
			t.Errorf("warm ridge %v, want %v", got, tc.want)
		}
	}
}
