package mira_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mira"
	"mira/internal/vm"
)

const apiSrc = `
double scale(double *x, int n, double a) {
	int i;
	for (i = 0; i < n; i++) {
		x[i] = a * x[i];
	}
	return x[0];
}`

// query evaluates one cell through Result.Run.
func query(res *mira.Result, fn string, env mira.Env, kind mira.QueryKind) mira.QueryResult {
	return res.Run(context.Background(), []mira.Query{{Fn: fn, Env: env, Kind: kind}})[0]
}

// static evaluates fn's inclusive metrics through Result.Run.
func static(res *mira.Result, fn string, env mira.Env) (mira.Metrics, error) {
	r := query(res, fn, env, mira.KindStatic)
	if r.Err != nil {
		return mira.Metrics{}, r.Err
	}
	return *r.Metrics, nil
}

func TestPublicAPIRoundTrip(t *testing.T) {
	res, err := mira.Analyze("s.c", apiSrc, mira.Options{})
	if err != nil {
		t.Fatal(err)
	}
	met, err := static(res, "scale", mira.IntArgs(map[string]int64{"n": 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if met.FPI() != 1000 {
		t.Errorf("FPI = %d", met.FPI())
	}
	r := query(res, "scale", mira.IntArgs(map[string]int64{"n": 1000}), mira.KindStaticExclusive)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if excl := r.Metrics; excl.FPI() != met.FPI() {
		t.Errorf("leaf function: exclusive %d != inclusive %d", excl.FPI(), met.FPI())
	}

	m := res.Machine()
	base := m.Alloc(1000)
	for i := 0; i < 1000; i++ {
		m.SetF(base+uint64(i), 2.0)
	}
	if _, err := m.Run("scale", vm.Int(int64(base)), vm.Int(1000), vm.Float(3.0)); err != nil {
		t.Fatal(err)
	}
	st, _ := m.FuncStatsByName("scale")
	if int64(st.FPIInclusive()) != met.FPI() {
		t.Errorf("validation failed: %d != %d", st.FPIInclusive(), met.FPI())
	}
}

func TestPublicAPICategoriesAndArtifacts(t *testing.T) {
	res, err := mira.Analyze("s.c", apiSrc, mira.Options{Arch: "frankenstein"})
	if err != nil {
		t.Fatal(err)
	}
	env := mira.IntArgs(map[string]int64{"n": 8})
	r := query(res, "scale", env, mira.KindCategories)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	cats := r.Categories
	if cats["SSE2 packed arithmetic instruction"] != 8 {
		t.Errorf("cats = %v", cats)
	}
	r = query(res, "scale", env, mira.KindFineCategories)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	fine := r.Categories
	if fine["System: 64-bit mode (movsxd)"] == 0 {
		t.Errorf("fine = %v", fine)
	}
	if !strings.Contains(res.PythonModel(), "def scale_3(") {
		t.Error("python model missing")
	}
	if !strings.Contains(res.SourceDot(), "digraph") {
		t.Error("dot missing")
	}
	asm, err := res.Disassembly("scale")
	if err != nil || !strings.Contains(asm, "mulsd") {
		t.Errorf("asm: %v", err)
	}
	if _, err := res.BinaryDot("scale"); err != nil {
		t.Error(err)
	}
}

func TestPublicAPIEngine(t *testing.T) {
	e, err := mira.NewEngine(4, mira.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := e.AnalyzeAll([]mira.BatchJob{
		{Name: "a.c", Source: apiSrc},
		{Name: "b.c", Source: apiSrc}, // identical content: must share one compile
		{Name: "bad.c", Source: "int f( {"},
	})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("good jobs failed: %v, %v", results[0].Err, results[1].Err)
	}
	if results[2].Err == nil {
		t.Error("bad job succeeded")
	}
	if hits, misses := e.CacheStats(); hits != 1 || misses != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/2", hits, misses)
	}
	env := mira.IntArgs(map[string]int64{"n": 1000})
	want, err := mira.Analyze("a.c", apiSrc, mira.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wmet, err := static(want, "scale", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[:2] {
		met, err := static(r.Result, "scale", env)
		if err != nil {
			t.Fatal(err)
		}
		// Second identical query per Result hits the memo.
		again, err := static(r.Result, "scale", env)
		if err != nil {
			t.Fatal(err)
		}
		if met.FPI() != wmet.FPI() || again.FPI() != wmet.FPI() {
			t.Errorf("engine metrics diverge from direct analysis: %d/%d vs %d",
				met.FPI(), again.FPI(), wmet.FPI())
		}
	}
	if _, err := mira.NewEngine(0, mira.Options{Arch: "pdp11"}); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestPublicAPIOptions(t *testing.T) {
	if _, err := mira.Analyze("s.c", apiSrc, mira.Options{Arch: "pdp11"}); err == nil {
		t.Error("unknown arch accepted")
	}
	// Lenient mode downgrades data-dependent branches.
	src := `
double f(double *x, int n) {
	int i; double s;
	s = 0.0;
	for (i = 0; i < n; i++) {
		if (x[i] > 0.0) { s = s + 1.0; }
	}
	return s;
}`
	if _, err := mira.Analyze("b.c", src, mira.Options{}); err == nil {
		t.Error("strict mode accepted a data-dependent branch")
	}
	res, err := mira.Analyze("b.c", src, mira.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings()) == 0 {
		t.Error("no warnings in lenient mode")
	}
	// Unoptimized compilation changes the binary.
	resO0, err := mira.Analyze("s.c", apiSrc, mira.Options{Unoptimized: true})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := static(res, "f", mira.IntArgs(map[string]int64{"n": 4}))
	_ = a
	m0, err := static(resO0, "scale", mira.IntArgs(map[string]int64{"n": 4}))
	if err != nil {
		t.Fatal(err)
	}
	if m0.FPI() != 4 {
		t.Errorf("unoptimized FPI = %d", m0.FPI())
	}
}

// TestPublicAPISweep covers the public sweep surface: Result.Sweep
// evaluates a grid through the compiled model, Result.Compile exposes
// the closed form directly, and the overflow contract is a typed,
// per-point mira.ErrOverflow.
func TestPublicAPISweep(t *testing.T) {
	res, err := mira.Analyze("s.c", apiSrc, mira.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := res.Sweep(context.Background(), mira.SweepSpec{
		Fn:   "scale",
		Kind: mira.KindStatic,
		Axes: []mira.SweepAxis{{Name: "n", Values: []int64{10, 100, 1000, 4_000_000_000_000_000_000}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 4 {
		t.Fatalf("points = %d", len(sw.Points))
	}
	for i, n := range []int64{10, 100, 1000} {
		p := sw.Points[i]
		if p.Err != nil {
			t.Fatalf("n=%d: %v", n, p.Err)
		}
		want, err := static(res, "scale", mira.IntArgs(map[string]int64{"n": n}))
		if err != nil {
			t.Fatal(err)
		}
		if *p.Metrics != want {
			t.Errorf("n=%d: sweep %+v != Static %+v", n, *p.Metrics, want)
		}
	}
	if !errors.Is(sw.Points[3].Err, mira.ErrOverflow) {
		t.Errorf("huge point err = %v, want mira.ErrOverflow", sw.Points[3].Err)
	}

	cm, err := res.Compile("scale")
	if err != nil {
		t.Fatal(err)
	}
	met, err := cm.Eval(mira.IntArgs(map[string]int64{"n": 77}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := static(res, "scale", mira.IntArgs(map[string]int64{"n": 77}))
	if err != nil {
		t.Fatal(err)
	}
	if met != want {
		t.Errorf("compiled %+v != Static %+v", met, want)
	}
	if ps := cm.Params(); len(ps) != 1 || ps[0] != "n" {
		t.Errorf("params = %v", ps)
	}
}
