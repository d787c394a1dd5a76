package engine_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/engine"
	"mira/internal/obs"
)

// TestDeltaSemantics pins when an Analysis carries a reuse delta: an
// incremental build reports exactly what it compiled and reused, a
// live-cache hit for identical content carries no delta at all (nothing
// ran, so nothing "changed"), and an edit reports only its blast
// radius.
func TestDeltaSemantics(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})

	a1, err := e.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE)
	if err != nil {
		t.Fatal(err)
	}
	d1 := a1.Delta()
	if d1 == nil {
		t.Fatal("cold build carries no delta")
	}
	if len(d1.Reused) != 0 {
		t.Errorf("cold build reused %v", d1.Reused)
	}
	total := len(d1.Compiled)
	if total == 0 {
		t.Fatal("cold build compiled nothing")
	}

	// Identical content again: served from the live cache, no pipeline
	// ran, so no delta.
	a2, err := e.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE)
	if err != nil {
		t.Fatal(err)
	}
	if d := a2.Delta(); d != nil {
		t.Errorf("live-cache hit carries delta %+v", d)
	}

	// A column shift inside minife: only that function recompiles.
	mutated := strings.Replace(benchprogs.MiniFE, "return cg_solve", " return cg_solve", 1)
	a3, err := e.AnalyzeCtx(context.Background(), "minife.c", mutated)
	if err != nil {
		t.Fatal(err)
	}
	d3 := a3.Delta()
	if d3 == nil {
		t.Fatal("edited build carries no delta")
	}
	if len(d3.Compiled) != 1 || d3.Compiled[0] != "minife" {
		t.Errorf("edit recompiled %v, want [minife]", d3.Compiled)
	}
	if got := len(d3.Reused) + len(d3.Compiled); got != total {
		t.Errorf("delta covers %d functions, cold build had %d", got, total)
	}

	var sb strings.Builder
	if err := e.Obs().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exp.Value("mira_incremental_hits_total"), float64(len(d3.Reused)); got != want {
		t.Errorf("mira_incremental_hits_total = %v, want %v", got, want)
	}
	if got, want := exp.Value("mira_incremental_misses_total"), float64(total+1); got != want {
		t.Errorf("mira_incremental_misses_total = %v, want %v", got, want)
	}
	if exp.Value("mira_function_memo_entries") == 0 {
		t.Error("mira_function_memo_entries gauge is zero with resident functions")
	}
}

// TestMemoryStoreFuncRoundTrip covers the per-function half of
// MemoryStore, and that two engines sharing it hand compiled functions
// across: the second engine's cold build of the same source reuses
// every function from the store.
func TestMemoryStoreFuncRoundTrip(t *testing.T) {
	store := engine.NewMemoryStore()
	if _, ok := store.LoadFunc("missing"); ok {
		t.Fatal("hit on empty store")
	}
	store.StoreFunc("k1", &engine.FuncEntry{Name: "f", Unit: []byte{1, 2}})
	got, ok := store.LoadFunc("k1")
	if !ok || got.Name != "f" || string(got.Unit) != "\x01\x02" {
		t.Fatalf("round-trip mismatch: %+v ok=%v", got, ok)
	}
	if store.FuncLen() != 1 {
		t.Errorf("FuncLen = %d, want 1", store.FuncLen())
	}

	e1 := engine.New(engine.Options{Store: store, Workers: 1})
	if _, err := e1.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE); err != nil {
		t.Fatal(err)
	}
	if store.FuncLen() < 2 {
		t.Fatalf("FuncLen = %d after analysis, want every compiled function", store.FuncLen())
	}

	// A second engine over the same store, analyzing the source with a
	// trailing newline added: the content-hash key changes (so the live
	// cache cannot serve it) while every function-content key stays
	// identical — each function must come from the per-function store.
	e2 := engine.New(engine.Options{Store: store, Workers: 1})
	a, err := e2.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE+"\n")
	if err != nil {
		t.Fatal(err)
	}
	d := a.Delta()
	if d == nil {
		t.Fatal("no delta from store-backed build")
	}
	if len(d.Compiled) != 0 {
		c := append([]string{}, d.Compiled...)
		sort.Strings(c)
		t.Errorf("store-backed build recompiled %v, want none", c)
	}
}
