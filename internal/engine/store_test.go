package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/obs"
)

// scrape renders an engine's registry and returns the parsed samples.
func scrape(t *testing.T, e *engine.Engine) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := e.Obs().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.Parse(sb.String())
	if err != nil {
		t.Fatalf("engine exposition fails lint: %v\n----\n%s", err, sb.String())
	}
	return exp.Samples
}

// TestCacheStoreWarmRestart simulates a process restart: a second engine
// sharing the first's CacheStore must serve the same source from the
// stored per-function unit (a store hit, no recompile) and evaluate
// identically.
func TestCacheStoreWarmRestart(t *testing.T) {
	store := engine.NewMemoryStore()
	env := expr.EnvFromInts(map[string]int64{"n": 500})

	cold := engine.New(engine.Options{Store: store})
	a1, err := cold.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := static(a1, "scale", env)
	if err != nil {
		t.Fatal(err)
	}
	if store.FuncLen() != 1 {
		t.Fatalf("store has %d entries after cold analyze, want 1", store.FuncLen())
	}
	s := scrape(t, cold)
	if s["mira_store_misses_total"] != 1 || s["mira_store_hits_total"] != 0 {
		t.Errorf("cold engine store counters = misses %v hits %v, want 1/0",
			s["mira_store_misses_total"], s["mira_store_hits_total"])
	}
	if s["mira_incremental_misses_total"] != 1 {
		t.Errorf("cold engine compiled %v functions, want 1", s["mira_incremental_misses_total"])
	}

	warm := engine.New(engine.Options{Store: store})
	a2, err := warm.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := static(a2, "scale", env)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("warm metrics %+v != cold metrics %+v", m2, m1)
	}
	s = scrape(t, warm)
	if s["mira_store_hits_total"] != 1 {
		t.Errorf("warm engine store hits = %v, want 1", s["mira_store_hits_total"])
	}
	if s["mira_store_misses_total"] != 0 {
		t.Errorf("warm engine store misses = %v, want 0", s["mira_store_misses_total"])
	}
	if s["mira_incremental_misses_total"] != 0 {
		t.Errorf("warm engine compiled %v functions, want 0 (store restore)",
			s["mira_incremental_misses_total"])
	}
}

// unitOf compiles src alone and returns the encoded unit of fn and its
// function-content key under default options.
func unitOf(t *testing.T, src, fn string) (key string, unit []byte) {
	t.Helper()
	res, err := core.AnalyzeIncrementalContext(context.Background(), "probe.c", src, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	art := res.Artifacts[fn]
	return art.Key, core.EncodeUnit(art.Unit)
}

// TestCacheStoreCorruptEntryDegrades plants damaged artifacts and checks
// the engine recompiles instead of failing or crashing.
func TestCacheStoreCorruptEntryDegrades(t *testing.T) {
	store := engine.NewMemoryStore()
	key, good := unitOf(t, scaleSrc, "scale")
	_, other := unitOf(t, axpySrc, "axpy")

	cases := []*engine.FuncEntry{
		{Name: "scale", Unit: []byte("not a unit")},
		{Name: "scale", Unit: nil},
		{Name: "scale", Unit: good[:len(good)/2]},
		{Name: "scale", Unit: other}, // a well-formed unit of another function
	}
	for i, ent := range cases {
		if err := store.StoreFunc(key, ent); err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Options{Store: store})
		a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
		if err != nil {
			t.Fatalf("case %d: corrupt store entry broke analysis: %v", i, err)
		}
		if _, err := static(a, "scale", expr.EnvFromInts(map[string]int64{"n": 10})); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		s := scrape(t, e)
		if s["mira_store_errors_total"] != 1 {
			t.Errorf("case %d: store errors = %v, want 1", i, s["mira_store_errors_total"])
		}
		if s["mira_store_hits_total"] != 0 {
			t.Errorf("case %d: corrupt entry counted as hit", i)
		}
		// The recompile must repair the store in place.
		fixed, ok := store.LoadFunc(key)
		if !ok || !bytes.Equal(fixed.Unit, good) {
			t.Errorf("case %d: store not repaired after recompile", i)
		}
	}
}

// TestCacheStoreConcurrentRoundTrip hammers one shared store from many
// goroutines across two engines — the -race gate checks the store and
// the restore path are sound under contention.
func TestCacheStoreConcurrentRoundTrip(t *testing.T) {
	store := engine.NewMemoryStore()
	engines := []*engine.Engine{
		engine.New(engine.Options{Store: store, Workers: 4}),
		engine.New(engine.Options{Store: store, Workers: 4}),
	}
	env := expr.EnvFromInts(map[string]int64{"n": 64})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := engines[g%2]
			for i := 0; i < 4; i++ {
				a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
				if err != nil {
					errs <- err
					return
				}
				if _, err := static(a, "scale", env); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if store.FuncLen() != 1 {
		t.Errorf("store holds %d entries, want 1", store.FuncLen())
	}
}

// TestLookupByKey covers the /query-by-key handle: present after a
// completed analysis, absent before, absent for failures.
func TestLookupByKey(t *testing.T) {
	e := engine.New(engine.Options{})
	key := e.Key(scaleSrc)
	if _, ok := e.Lookup(key); ok {
		t.Error("Lookup hit before any analysis")
	}
	if _, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc); err != nil {
		t.Fatal(err)
	}
	a, ok := e.Lookup(key)
	if !ok || a == nil {
		t.Fatal("Lookup missed a completed analysis")
	}
	if _, err := e.AnalyzeCtx(context.Background(), "bad.c", "int f( {"); err == nil {
		t.Fatal("parse error accepted")
	}
	if _, ok := e.Lookup(e.Key("int f( {")); ok {
		t.Error("Lookup returned a failed analysis")
	}
}

// TestMaxResidentEviction bounds the live cache: a flood of distinct
// sources must not grow it past the bound, evicted programs must still
// re-analyze (via the store, no recompile), and holders of evicted
// analyses must keep working. The function memo keeps one cell, so
// re-analyses reach the store.
func TestMaxResidentEviction(t *testing.T) {
	store := engine.NewMemoryStore()
	e := engine.New(engine.Options{Store: store, MaxResident: 3, MaxResidentFuncs: 1})
	env := expr.EnvFromInts(map[string]int64{"n": 9})

	src := func(i int) string {
		return fmt.Sprintf("double f(double *x, int n) { double s; int i; s = %d.0; for (i = 0; i < n; i++) { s = s + x[i]; } return s; }", i)
	}
	first, err := e.AnalyzeCtx(context.Background(), "p0.c", src(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if _, err := e.AnalyzeCtx(context.Background(), fmt.Sprintf("p%d.c", i), src(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := scrape(t, e)
	if got := s["mira_resident_analyses"]; got > 3 {
		t.Errorf("resident analyses = %v, want <= 3", got)
	}
	// 7 live-cache evictions (10 analyses, bound 3) plus 9 function-memo
	// cell evictions (10 distinct cells, bound 1) share the counter.
	if got := s["mira_cache_evictions_total"]; got != 16 {
		t.Errorf("evictions = %v, want 16 (7 live-cache + 9 function-memo)", got)
	}
	// An evicted Analysis held by a caller stays fully usable.
	if _, err := static(first, "f", env); err != nil {
		t.Errorf("evicted analysis unusable: %v", err)
	}
	// Re-requesting evicted programs restores from the store, not the
	// compiler: every one of the 10 sources was persisted exactly once.
	// At most 3 re-requests are live-cache hits and at most one finds
	// its function in the one-cell memo, so the rest must hit the store.
	if store.FuncLen() != 10 {
		t.Fatalf("store has %d entries, want 10", store.FuncLen())
	}
	before := s["mira_incremental_misses_total"]
	for i := 0; i < 10; i++ {
		if _, err := e.AnalyzeCtx(context.Background(), fmt.Sprintf("p%d.c", i), src(i)); err != nil {
			t.Fatal(err)
		}
	}
	s = scrape(t, e)
	if s["mira_incremental_misses_total"] != before {
		t.Error("re-analysis of an evicted program recompiled instead of restoring")
	}
	if s["mira_store_hits_total"] < 6 {
		t.Errorf("store hits = %v for the evicted programs, want >= 6", s["mira_store_hits_total"])
	}
}
