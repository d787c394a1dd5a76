package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/model"
)

func analyzeT(t *testing.T, e *engine.Engine, name, src string) *engine.Analysis {
	t.Helper()
	a, err := e.AnalyzeCtx(context.Background(), name, src)
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	return a
}

func TestSweepStaticMatchesTreeWalk(t *testing.T) {
	e := engine.New(engine.Options{})
	a := analyzeT(t, e, "stream.c", benchprogs.Stream)
	sizes := []int64{0, 1, 100, 10_000, 1_000_000}
	res, err := a.Sweep(context.Background(), engine.SweepSpec{
		Fn:   "stream",
		Kind: engine.KindStatic,
		Axes: []engine.SweepAxis{{Name: "n", Values: sizes}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(sizes) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(sizes))
	}
	for i, n := range sizes {
		p := res.Points[i]
		if p.Err != nil {
			t.Fatalf("point n=%d: %v", n, p.Err)
		}
		if p.Env["n"] != n {
			t.Fatalf("point %d env = %v, want n=%d (grid order)", i, p.Env, n)
		}
		want, err := a.Model.Evaluate("stream", expr.EnvFromInts(map[string]int64{"n": n}))
		if err != nil {
			t.Fatal(err)
		}
		if *p.Metrics != want {
			t.Fatalf("n=%d: sweep %+v != walker %+v", n, *p.Metrics, want)
		}
	}
	fpi, err := res.FPISeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(fpi) != len(sizes) || fpi[2] >= fpi[3] {
		t.Fatalf("FPI series not scaling: %v", fpi)
	}
}

func TestSweepGridExpansion(t *testing.T) {
	e := engine.New(engine.Options{})
	a := analyzeT(t, e, "dgemm.c", benchprogs.Dgemm)
	res, err := a.Sweep(context.Background(), engine.SweepSpec{
		Fn:   "dgemm_bench",
		Kind: engine.KindStatic,
		Axes: []engine.SweepAxis{
			{Name: "n", Values: []int64{8, 16}},
			{Name: "nrep", Values: []int64{1, 2, 3}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(res.Points))
	}
	// Rightmost axis varies fastest.
	wantOrder := [][2]int64{{8, 1}, {8, 2}, {8, 3}, {16, 1}, {16, 2}, {16, 3}}
	for i, w := range wantOrder {
		p := res.Points[i]
		if p.Err != nil {
			t.Fatalf("point %d: %v", i, p.Err)
		}
		if p.Env["n"] != w[0] || p.Env["nrep"] != w[1] {
			t.Fatalf("point %d env = %v, want n=%d nrep=%d", i, p.Env, w[0], w[1])
		}
	}
	// FPI doubles with nrep at fixed n.
	if res.Points[1].Metrics.FPI() != 2*res.Points[0].Metrics.FPI() {
		t.Fatalf("nrep scaling broken: %d vs %d", res.Points[1].Metrics.FPI(), res.Points[0].Metrics.FPI())
	}
}

func TestSweepBaseAndPoints(t *testing.T) {
	e := engine.New(engine.Options{})
	a := analyzeT(t, e, "dgemm.c", benchprogs.Dgemm)
	res, err := a.Sweep(context.Background(), engine.SweepSpec{
		Fn:     "dgemm_bench",
		Kind:   engine.KindStatic,
		Base:   map[string]int64{"nrep": 4},
		Points: []map[string]int64{{"n": 8}, {"n": 16}, {"n": 16, "nrep": 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if res.Points[i].Err != nil {
			t.Fatalf("point %d: %v", i, res.Points[i].Err)
		}
	}
	// Point 2 overrides the base nrep: 4x fewer FPI than point 1.
	if res.Points[1].Metrics.FPI() != 4*res.Points[2].Metrics.FPI() {
		t.Fatalf("base/point override broken: %d vs %d",
			res.Points[1].Metrics.FPI(), res.Points[2].Metrics.FPI())
	}
}

func TestSweepSpecErrors(t *testing.T) {
	e := engine.New(engine.Options{})
	a := analyzeT(t, e, "stream.c", benchprogs.Stream)
	ctx := context.Background()
	big := make([]int64, 300)
	for i := range big {
		big[i] = int64(i)
	}
	cases := []struct {
		name string
		spec engine.SweepSpec
	}{
		{"no fn", engine.SweepSpec{Kind: engine.KindStatic, Axes: []engine.SweepAxis{{Name: "n", Values: []int64{1}}}}},
		{"unknown fn", engine.SweepSpec{Fn: "ghost", Kind: engine.KindStatic, Axes: []engine.SweepAxis{{Name: "n", Values: []int64{1}}}}},
		{"bad kind", engine.SweepSpec{Fn: "stream", Kind: engine.QueryKind(99), Axes: []engine.SweepAxis{{Name: "n", Values: []int64{1}}}}},
		{"no grid", engine.SweepSpec{Fn: "stream", Kind: engine.KindStatic}},
		{"axes and points", engine.SweepSpec{Fn: "stream", Kind: engine.KindStatic,
			Axes: []engine.SweepAxis{{Name: "n", Values: []int64{1}}}, Points: []map[string]int64{{"n": 1}}}},
		{"unnamed axis", engine.SweepSpec{Fn: "stream", Kind: engine.KindStatic, Axes: []engine.SweepAxis{{Values: []int64{1}}}}},
		{"empty axis", engine.SweepSpec{Fn: "stream", Kind: engine.KindStatic, Axes: []engine.SweepAxis{{Name: "n"}}}},
		{"duplicate axis", engine.SweepSpec{Fn: "stream", Kind: engine.KindStatic,
			Axes: []engine.SweepAxis{{Name: "n", Values: []int64{1}}, {Name: "n", Values: []int64{2}}}}},
		{"too many points", engine.SweepSpec{Fn: "stream", Kind: engine.KindStatic,
			Axes: []engine.SweepAxis{{Name: "a", Values: big}, {Name: "b", Values: big}}}},
		{"archs on static", engine.SweepSpec{Fn: "stream", Kind: engine.KindStatic,
			Axes: []engine.SweepAxis{{Name: "n", Values: []int64{1}}}, Archs: []string{"arya", "generic"}}},
		{"unknown arch", engine.SweepSpec{Fn: "stream", Kind: engine.KindRoofline,
			Axes: []engine.SweepAxis{{Name: "n", Values: []int64{1}}}, Archs: []string{"nope"}}},
	}
	for _, tc := range cases {
		if _, err := a.Sweep(ctx, tc.spec); err == nil {
			t.Errorf("%s: sweep accepted", tc.name)
		}
	}
}

// TestSweepPerPointOverflow: a grid crossing the int64 wrap boundary
// fails exactly the overflowing cells with ErrOverflow while the rest
// of the sweep evaluates.
func TestSweepPerPointOverflow(t *testing.T) {
	e := engine.New(engine.Options{})
	a := analyzeT(t, e, "dgemm.c", benchprogs.Dgemm)
	res, err := a.Sweep(context.Background(), engine.SweepSpec{
		Fn:   "dgemm_bench",
		Kind: engine.KindStatic,
		Base: map[string]int64{"nrep": 1},
		// 64 is fine; 3e6 cubes past MaxInt64.
		Axes: []engine.SweepAxis{{Name: "n", Values: []int64{64, 3_000_000}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Err != nil {
		t.Fatalf("small point failed: %v", res.Points[0].Err)
	}
	if !errors.Is(res.Points[1].Err, model.ErrOverflow) {
		t.Fatalf("huge point err = %v, want ErrOverflow", res.Points[1].Err)
	}
}

func TestSweepKindsMatchQueries(t *testing.T) {
	e := engine.New(engine.Options{})
	a := analyzeT(t, e, "dgemm.c", benchprogs.Dgemm)
	env := map[string]int64{"n": 24, "nrep": 2}
	exprEnv := expr.EnvFromInts(env)

	// Categories.
	res, err := a.Sweep(context.Background(), engine.SweepSpec{
		Fn: "dgemm_bench", Kind: engine.KindCategories, Points: []map[string]int64{env},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := a.RunOne(context.Background(), engine.Query{Fn: "dgemm_bench", Env: exprEnv, Kind: engine.KindCategories})
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	wantCats := want.Categories
	if fmt.Sprint(res.Points[0].Categories) != fmt.Sprint(wantCats) {
		t.Fatalf("categories sweep %v != query %v", res.Points[0].Categories, wantCats)
	}

	// Roofline across two architectures.
	res, err = a.Sweep(context.Background(), engine.SweepSpec{
		Fn: "dgemm_bench", Kind: engine.KindRoofline,
		Points: []map[string]int64{env},
		Archs:  []string{"arya", "frankenstein"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("arch sweep points = %d, want 2", len(res.Points))
	}
	for i, name := range []string{"arya", "frankenstein"} {
		p := res.Points[i]
		if p.Err != nil {
			t.Fatalf("%s: %v", name, p.Err)
		}
		if p.Arch != name || p.Roofline == nil {
			t.Fatalf("point %d = %+v, want arch %s with roofline", i, p, name)
		}
	}
	if res.Points[0].Roofline.AttainableGFlops == res.Points[1].Roofline.AttainableGFlops {
		t.Fatal("distinct architectures produced identical rooflines")
	}

	// PBound.
	res, err = a.Sweep(context.Background(), engine.SweepSpec{
		Fn: "dgemm", Kind: engine.KindPBound, Points: []map[string]int64{env},
	})
	if err != nil {
		t.Fatal(err)
	}
	want = a.RunOne(context.Background(), engine.Query{Fn: "dgemm", Env: exprEnv, Kind: engine.KindPBound})
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	wantPB := *want.PBound
	if res.Points[0].Err != nil || *res.Points[0].PBound != wantPB {
		t.Fatalf("pbound sweep %+v (err %v) != query %+v", res.Points[0].PBound, res.Points[0].Err, wantPB)
	}
}

// TestSweepCancellation: a context cancelled before (and during) a
// sweep yields per-point context errors, never a hang and never a
// spec-level failure.
func TestSweepCancellation(t *testing.T) {
	e := engine.New(engine.Options{})
	a := analyzeT(t, e, "stream.c", benchprogs.Stream)
	sizes := make([]int64, 4096)
	for i := range sizes {
		sizes[i] = int64(i + 1)
	}
	spec := engine.SweepSpec{Fn: "stream", Kind: engine.KindStatic,
		Axes: []engine.SweepAxis{{Name: "n", Values: sizes}}}

	// Pre-cancelled: every point must carry the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := a.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if !errors.Is(res.Points[i].Err, context.Canceled) {
			t.Fatalf("point %d err = %v, want context.Canceled", i, res.Points[i].Err)
		}
	}

	// Cancelled mid-flight: every point must report either a result or
	// the context error — nothing silently empty.
	ctx, cancel = context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cancel() // races the sweep deliberately
	}()
	res, err = a.Sweep(ctx, spec)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		p := res.Points[i]
		if p.Err == nil && p.Metrics == nil {
			t.Fatalf("point %d has neither result nor error", i)
		}
		if p.Err != nil && !errors.Is(p.Err, context.Canceled) {
			t.Fatalf("point %d err = %v", i, p.Err)
		}
	}
}

// TestSweepCompiledOnce: the symbolic compilation is cached on the
// shared memo — two sweeps (and cross-name cache-hit views) compile
// the function once.
func TestSweepCompiledOnce(t *testing.T) {
	e := engine.New(engine.Options{})
	a := analyzeT(t, e, "stream.c", benchprogs.Stream)
	cm1, err := a.Compiled("stream", false)
	if err != nil {
		t.Fatal(err)
	}
	b := analyzeT(t, e, "copy.c", benchprogs.Stream) // same content, new name
	cm2, err := b.Compiled("stream", false)
	if err != nil {
		t.Fatal(err)
	}
	if cm1 != cm2 {
		t.Fatal("compilation not shared across cache-hit views")
	}
}
