package engine_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/synth"
)

// triSrc has a triangular nest, whose trip count n(n-1)/2 carries
// Faulhaber's rational coefficients, called with a floor-divided
// argument that moves with the caller's loop and, from reps, with a
// fixed argument under an integral trip count (so one chain mixes tape
// and rational multiplicities), and a strided loop whose trip count
// floor-divides a sum that may be negative or overflow.
const triSrc = `
double strided(double *a, int n) {
	double s; int i;
	s = 0.0;
	for (i = n / 2; i < n + 5; i += 3) {
		s = s + a[i];
	}
	return s;
}
double tri(double *a, int n) {
	double s; int i; int j;
	s = 0.0;
	for (i = 0; i < n; i++) {
		for (j = 0; j < i; j++) {
			s = s + a[j] * 0.5;
		}
	}
	return s;
}
double outer(double *a, int n, int m) {
	double s; int k;
	s = 0.0;
	for (k = 0; k < m; k++) {
		s = s + tri(a, n / 2 + k);
	}
	return s;
}
double reps(double *a, int n, int m) {
	double s; int k;
	s = 0.0;
	for (k = 0; k < m; k++) {
		s = s + tri(a, n);
	}
	return s;
}`

// edgeInts are parameter values around zero and the int64 overflow
// boundary of the models' products.
var edgeInts = []int64{0, 1, 2, -1, -3, 7, 1 << 20, 2097151, 2097152, 1 << 31,
	3037000499, 3037000500, 1 << 32, math.MaxInt64, math.MinInt64}

// sweepMatchesWalker runs spec and checks every point against the
// memoized tree walk of the same cell (a /query): equal values, or
// errors with equal text. Metrics kinds are also checked against the
// compiled model's environment entry point, CompiledModel.Eval.
func sweepMatchesWalker(t *testing.T, a *engine.Analysis, spec engine.SweepSpec) {
	t.Helper()
	ctx := context.Background()
	res, err := a.Sweep(ctx, spec)
	if err != nil {
		t.Fatalf("%s %s: %v", spec.Fn, spec.Kind, err)
	}
	exclusive := spec.Kind == engine.KindStaticExclusive
	cm, err := a.Compiled(spec.Fn, exclusive)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		env := expr.EnvFromInts(p.Env)
		want := a.RunOne(ctx, engine.Query{Fn: spec.Fn, Env: env, Kind: spec.Kind, Arch: p.Arch})
		if (p.Err == nil) != (want.Err == nil) || p.Err != nil && p.Err.Error() != want.Err.Error() {
			t.Fatalf("%s %s at %v %s: sweep error %v, walker error %v", spec.Fn, spec.Kind, p.Env, p.Arch, p.Err, want.Err)
		}
		if !reflect.DeepEqual(p.Value, want.Value) {
			t.Fatalf("%s %s at %v %s: sweep %+v, walker %+v", spec.Fn, spec.Kind, p.Env, p.Arch, p.Value, want.Value)
		}
		if spec.Kind == engine.KindStatic || exclusive {
			met, err := cm.Eval(env)
			if (err == nil) != (p.Err == nil) || err == nil && met != *p.Metrics {
				t.Fatalf("%s at %v: CompiledModel.Eval %+v (%v), sweep %+v (%v)", spec.Fn, p.Env, met, err, p.Value, p.Err)
			}
		}
	}
}

// TestSweepMatchesWalker holds the compiled sweep evaluation (the int64
// tape, the rational path and the walker fallback) to the tree walker,
// point by point: zeros, negatives and values at the int64
// overflow boundary; rational multiplicities (a triangular nest,
// br_frac); explicit points that bind different names, leave a
// parameter unbound or bind one the model never reads; every
// compiled-model kind.
func TestSweepMatchesWalker(t *testing.T) {
	e := engine.New(engine.Options{})
	dgemm := analyzeT(t, e, "dgemm.c", benchprogs.Dgemm)
	tri := analyzeT(t, e, "tri.c", triSrc)
	brfrac := analyzeT(t, e, "brfrac.c", benchprogs.BrFrac)
	kinds := []engine.QueryKind{engine.KindStatic, engine.KindStaticExclusive, engine.KindCategories,
		engine.KindFineCategories, engine.KindRoofline}
	small := []int64{0, 1, 2, -1, -3, 7, 2097151, 2097152}
	cases := []struct {
		a    *engine.Analysis
		spec engine.SweepSpec
	}{
		{dgemm, engine.SweepSpec{Fn: "dgemm_bench", Axes: []engine.SweepAxis{
			{Name: "n", Values: edgeInts}, {Name: "nrep", Values: []int64{0, 1, -2, 3}}}}},
		{dgemm, engine.SweepSpec{Fn: "dgemm_bench", Base: map[string]int64{"nrep": 2},
			Points: []map[string]int64{{"n": 8}, {}, {"n": 4, "nrep": -1}, {"m": 3}, {"n": 2097152, "nrep": 1}}}},
		{tri, engine.SweepSpec{Fn: "tri", Axes: []engine.SweepAxis{{Name: "n", Values: edgeInts}}}},
		{tri, engine.SweepSpec{Fn: "strided", Axes: []engine.SweepAxis{{Name: "n", Values: edgeInts}}}},
		{tri, engine.SweepSpec{Fn: "outer", Axes: []engine.SweepAxis{
			{Name: "n", Values: small}, {Name: "m", Values: []int64{0, 1, 3, -1}}}}},
		{tri, engine.SweepSpec{Fn: "outer", Points: []map[string]int64{{"n": 9}, {"m": 2}, {"n": 9, "m": 2}}}},
		{tri, engine.SweepSpec{Fn: "reps", Axes: []engine.SweepAxis{
			{Name: "n", Values: small}, {Name: "m", Values: []int64{0, 1, 3, -1, 1 << 40}}}}},
		{brfrac, engine.SweepSpec{Fn: "kernel", Axes: []engine.SweepAxis{{Name: "n", Values: edgeInts}}}},
	}
	for _, c := range cases {
		for _, kind := range kinds {
			spec := c.spec
			spec.Kind = kind
			if kind == engine.KindRoofline {
				spec.Archs = []string{"arya", "skylake"}
			}
			sweepMatchesWalker(t, c.a, spec)
		}
	}
}

// FuzzCompiledRows evaluates every function of a fuzzed synthetic
// program (internal/synth, Table I-style profiles) at fuzzed int64
// points through a sweep, and holds each point to the tree walker by
// value or by error text. The points include one that
// binds a name the model never reads and one that binds nothing.
func FuzzCompiledRows(f *testing.F) {
	f.Add(1, 1, 1, int64(6), int64(-1))
	f.Add(3, 12, 9, int64(0), int64(math.MaxInt64))
	f.Add(7, 40, 25, int64(2097152), int64(math.MinInt64))
	f.Add(6, 123, 123, int64(1<<32), int64(3037000500))
	f.Fuzz(func(t *testing.T, loops, statements, inLoops int, n1, n2 int64) {
		// Small profiles keep one iteration cheap; larger ones add no
		// new evaluator shapes.
		if loops < 1 || loops > 12 || statements < 1 || statements > 150 {
			t.Skip("out of budget")
		}
		if inLoops < loops || statements < inLoops {
			t.Skip("infeasible profile")
		}
		src, err := synth.Generate(synth.Profile{Name: "fuzz", Loops: loops, Statements: statements, InLoops: inLoops})
		if err != nil {
			t.Skip("generator rejected profile")
		}
		a := analyzeT(t, engine.New(engine.Options{Workers: 1}), "fuzz.c", src)
		points := []map[string]int64{{"n": n1}, {"n": n2}, {"n": n1, "m": n2}, {}}
		for _, fn := range a.Model.Order {
			for _, kind := range []engine.QueryKind{engine.KindStatic, engine.KindCategories} {
				sweepMatchesWalker(t, a, engine.SweepSpec{Fn: fn, Kind: kind, Points: points})
			}
		}
	})
}
