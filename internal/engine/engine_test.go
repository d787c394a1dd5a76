package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/model"
)

const scaleSrc = `
double scale(double *x, int n, double a) {
	int i;
	for (i = 0; i < n; i++) {
		x[i] = a * x[i];
	}
	return x[0];
}`

const axpySrc = `
double axpy(double *x, double *y, int n, double a) {
	int i;
	for (i = 0; i < n; i++) {
		y[i] = a * x[i] + y[i];
	}
	return y[0];
}`

func TestAnalyzeContentDedup(t *testing.T) {
	e := engine.New(engine.Options{})
	a1, err := e.AnalyzeCtx(context.Background(), "one.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.AnalyzeCtx(context.Background(), "two.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The second caller gets a view of the first compile — same model and
	// object artifacts, same memo layer — carrying its own name.
	if a1.Model != a2.Model || a1.Obj != a2.Obj {
		t.Error("identical source under two names was compiled twice")
	}
	if a1.Name != "one.c" || a2.Name != "two.c" {
		t.Errorf("names = %q, %q; want each caller's own", a1.Name, a2.Name)
	}
	if hits, misses := e.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// Shared memo: an evaluation through one view is a hit through the
	// other.
	env := expr.EnvFromInts(map[string]int64{"n": 7})
	if _, err := static(a1, "scale", env); err != nil {
		t.Fatal(err)
	}
	if _, err := static(a2, "scale", env); err != nil {
		t.Fatal(err)
	}
	if hits, misses := a2.EvalStats(); hits != 1 || misses != 1 {
		t.Errorf("eval stats across views = %d/%d, want 1 hit / 1 miss", hits, misses)
	}
	if _, err := e.AnalyzeCtx(context.Background(), "three.c", axpySrc); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}

func TestAnalyzeCachesFailures(t *testing.T) {
	e := engine.New(engine.Options{})
	_, err1 := e.AnalyzeCtx(context.Background(), "bad.c", "int f( {")
	if err1 == nil {
		t.Fatal("expected parse error")
	}
	_, err2 := e.AnalyzeCtx(context.Background(), "bad.c", "int f( {")
	if err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("cached failure differs: %v vs %v", err1, err2)
	}
	// A different name hitting the same failing content gets the cached
	// error annotated with its provenance, since the diagnostic's
	// positions cite the first requester's file.
	_, err3 := e.AnalyzeCtx(context.Background(), "other.c", "int f( {")
	if err3 == nil || !errors.Is(err3, err1) {
		t.Errorf("cached failure under new name does not wrap original: %v", err3)
	}
	if err3 != nil && !strings.Contains(err3.Error(), "bad.c") {
		t.Errorf("annotated error does not name the original file: %v", err3)
	}
	if hits, misses := e.Stats(); hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

func TestAnalyzeAllPerItemErrors(t *testing.T) {
	e := engine.New(engine.Options{Workers: 4})
	jobs := []engine.Job{
		{Name: "scale.c", Source: scaleSrc},
		{Name: "broken.c", Source: "double f() { return 1.0 }"},
		{Name: "axpy.c", Source: axpySrc},
	}
	results := e.AnalyzeAll(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Job != jobs[i] {
			t.Errorf("result %d out of order: %v", i, r.Job.Name)
		}
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("good jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("broken job succeeded")
	}
	err := engine.Errors(results)
	if err == nil {
		t.Fatal("Errors() == nil despite a failed job")
	}
	if want := "broken.c"; !errors.Is(err, results[1].Err) {
		t.Errorf("joined error does not wrap the item failure (want %s): %v", want, err)
	}
}

// TestConcurrentBatchAndEvalMatchesSerial is the concurrency/race gate:
// batch analysis with duplicated content plus hammering the memoized
// evaluation layer from many goroutines must produce exactly the results
// of the serial, uncached path. Run under `go test -race`.
func TestConcurrentBatchAndEvalMatchesSerial(t *testing.T) {
	sources := map[string]string{
		"scale.c":  scaleSrc,
		"axpy.c":   axpySrc,
		"stream.c": benchprogs.Stream,
	}

	// Serial ground truth straight through core, no caching.
	type truth struct {
		metrics map[int64]int64 // n -> FPI
		ops     map[int64]int64 // n -> total opcode count
	}
	fns := map[string]string{"scale.c": "scale", "axpy.c": "axpy", "stream.c": "stream"}
	ns := []int64{8, 100, 1000}
	want := map[string]truth{}
	for name, src := range sources {
		p, err := core.Analyze(name, src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := truth{metrics: map[int64]int64{}, ops: map[int64]int64{}}
		for _, n := range ns {
			env := expr.EnvFromInts(map[string]int64{"n": n})
			met, err := p.Model.Evaluate(fns[name], env)
			if err != nil {
				t.Fatal(err)
			}
			tr.metrics[n] = met.FPI()
			ops, err := p.Model.EvaluateOpcodes(fns[name], env)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ops {
				tr.ops[n] += c
			}
		}
		want[name] = tr
	}

	// Concurrent path: a batch with every source duplicated under two
	// names, then parallel repeated evaluations on the shared analyses.
	e := engine.New(engine.Options{Workers: 4})
	var jobs []engine.Job
	for name, src := range sources {
		jobs = append(jobs, engine.Job{Name: name, Source: src})
		jobs = append(jobs, engine.Job{Name: "dup-" + name, Source: src})
	}
	results := e.AnalyzeAll(context.Background(), jobs)
	if err := engine.Errors(results); err != nil {
		t.Fatal(err)
	}
	if _, misses := e.Stats(); misses != int64(len(sources)) {
		t.Errorf("misses = %d, want %d (content dedup failed)", misses, len(sources))
	}

	var wg sync.WaitGroup
	errc := make(chan error, 1)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for _, r := range results {
		base := r.Job.Name
		if len(base) > 4 && base[:4] == "dup-" {
			base = base[4:]
		}
		fn, tr := fns[base], want[base]
		for _, n := range ns {
			for rep := 0; rep < 8; rep++ {
				wg.Add(1)
				go func(a *engine.Analysis, n int64) {
					defer wg.Done()
					env := expr.EnvFromInts(map[string]int64{"n": n})
					met, err := static(a, fn, env)
					if err != nil {
						report(err)
						return
					}
					if met.FPI() != tr.metrics[n] {
						report(fmt.Errorf("%s n=%d: FPI %d != serial %d", fn, n, met.FPI(), tr.metrics[n]))
					}
					// Table II buckets every opcode once: their sum is
					// the opcode total.
					r := a.RunOne(context.Background(), engine.Query{Fn: fn, Env: env, Kind: engine.KindCategories})
					if r.Err != nil {
						report(r.Err)
						return
					}
					var total int64
					for _, c := range r.Categories {
						total += c
					}
					if total != tr.ops[n] {
						report(fmt.Errorf("%s n=%d: opcode total %d != serial %d", fn, n, total, tr.ops[n]))
					}
					// Mutating the returned copy must not poison the memo.
					for c := range r.Categories {
						r.Categories[c] = -1
					}
				}(r.Analysis, n)
			}
		}
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Every (fn, env) point was computed at most once per distinct
	// analysis; the rest of the traffic hit the memo.
	for _, r := range results[:1] {
		hits, misses := r.Analysis.EvalStats()
		if misses > int64(2*len(ns)) {
			t.Errorf("eval misses = %d, want <= %d", misses, 2*len(ns))
		}
		if hits == 0 {
			t.Error("no eval cache hits under repeated identical queries")
		}
	}
}

// static evaluates one KindStatic cell through RunOne.
func static(a *engine.Analysis, fn string, env expr.Env) (model.Metrics, error) {
	r := a.RunOne(context.Background(), engine.Query{Fn: fn, Env: env, Kind: engine.KindStatic})
	if r.Err != nil {
		return model.Metrics{}, r.Err
	}
	return *r.Metrics, nil
}

func TestEnvFingerprintOrderIndependent(t *testing.T) {
	e := engine.New(engine.Options{})
	a, err := e.AnalyzeCtx(context.Background(), "axpy.c", axpySrc)
	if err != nil {
		t.Fatal(err)
	}
	// Two envs with identical bindings built in different insertion
	// orders must hit the same memo slot.
	e1 := expr.Env{}
	e1["n"] = expr.EnvFromInts(map[string]int64{"n": 64})["n"]
	e1["a"] = expr.EnvFromInts(map[string]int64{"a": 3})["a"]
	e2 := expr.Env{}
	e2["a"] = expr.EnvFromInts(map[string]int64{"a": 3})["a"]
	e2["n"] = expr.EnvFromInts(map[string]int64{"n": 64})["n"]
	if _, err := static(a, "axpy", e1); err != nil {
		t.Fatal(err)
	}
	if _, err := static(a, "axpy", e2); err != nil {
		t.Fatal(err)
	}
	hits, misses := a.EvalStats()
	if hits != 1 || misses != 1 {
		t.Errorf("eval stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestForEach(t *testing.T) {
	// No failures: every index runs exactly once at every worker count.
	for _, workers := range []int{1, 3, 16} {
		n := 50
		var ran atomic.Int64
		seen := make([]bool, n)
		var mu sync.Mutex
		err := engine.ForEachCtx(context.Background(), workers, n, func(i int) error {
			ran.Add(1)
			mu.Lock()
			seen[i] = true
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if ran.Load() != int64(n) {
			t.Errorf("workers=%d: ran %d of %d", workers, ran.Load(), n)
		}
		for i, s := range seen {
			if !s {
				t.Errorf("workers=%d: index %d never ran", workers, i)
			}
		}
	}

	// A failure reports the lowest-index error among the items that ran
	// and stops scheduling new ones.
	for _, workers := range []int{1, 3, 16} {
		var ran atomic.Int64
		err := engine.ForEachCtx(context.Background(), workers, 50, func(i int) error {
			ran.Add(1)
			if i == 7 || i == 31 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 7" {
			t.Errorf("workers=%d: err = %v, want boom 7 (lowest index)", workers, err)
		}
		if workers == 1 && ran.Load() != 8 {
			t.Errorf("serial: ran %d items, want early exit after index 7", ran.Load())
		}
	}
	if err := engine.ForEachCtx(context.Background(), 4, 0, func(int) error { return fmt.Errorf("no") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
}
