package pbound_test

import (
	"os"
	"testing"

	"mira/internal/expr"
	"mira/internal/parser"
	"mira/internal/pbound"
	"mira/internal/sema"
)

func analyze(t *testing.T, src string) *pbound.Report {
	t.Helper()
	file, err := parser.ParseFile("t.c", src)
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
	return rep
}

func TestSimpleKernelCounts(t *testing.T) {
	rep := analyze(t, `
void axpy(double *x, double *y, int n, double a) {
	int i;
	for (i = 0; i < n; i++) {
		y[i] = a * x[i] + y[i];
	}
}`)
	env := expr.EnvFromInts(map[string]int64{"n": 100})
	flops, err := rep.EvalFlops("axpy", env)
	if err != nil {
		t.Fatal(err)
	}
	if flops != 200 { // mul + add per element
		t.Errorf("flops = %d, want 200", flops)
	}
	loads, _ := rep.EvalLoads("axpy", env)
	if loads != 200 { // x[i], y[i]
		t.Errorf("loads = %d, want 200", loads)
	}
	stores, _ := rep.EvalStores("axpy", env)
	if stores != 100 {
		t.Errorf("stores = %d, want 100", stores)
	}
}

func TestSourceLevelOvercounting(t *testing.T) {
	// PBound counts the constant-foldable subexpression every iteration.
	rep := analyze(t, `
void k(double *x, int n) {
	int i;
	for (i = 0; i < n; i++) {
		x[i] = x[i] * (2.0 * 3.14 / 360.0);
	}
}`)
	env := expr.EnvFromInts(map[string]int64{"n": 10})
	flops, err := rep.EvalFlops("k", env)
	if err != nil {
		t.Fatal(err)
	}
	// Source spells 3 FP ops per iteration; the optimized binary performs
	// 1. PBound reports the source-level 30.
	if flops != 30 {
		t.Errorf("flops = %d, want 30 (source-level)", flops)
	}
}

func TestInclusiveCalls(t *testing.T) {
	rep := analyze(t, `
double helper(double *x, int m) {
	double s; int i;
	s = 0.0;
	for (i = 0; i < m; i++) { s = s + x[i]; }
	return s;
}
double driver(double *x, int n) {
	double t; int k;
	t = 0.0;
	for (k = 0; k < 4; k++) {
		t = t + helper(x, n);
	}
	return t;
}`)
	env := expr.EnvFromInts(map[string]int64{"n": 25})
	flops, err := rep.EvalFlops("driver", env)
	if err != nil {
		t.Fatal(err)
	}
	// helper: 25 adds per call, 4 calls; driver: 4 adds.
	if flops != 4*25+4 {
		t.Errorf("flops = %d, want 104", flops)
	}
}

func TestBranchesCountedAsUpperBound(t *testing.T) {
	rep := analyze(t, `
void k(double *x, int n) {
	int i;
	for (i = 0; i < n; i++) {
		if (i % 2 == 0) {
			x[i] = x[i] + 1.0;
		} else {
			x[i] = x[i] - 1.0;
		}
	}
}`)
	env := expr.EnvFromInts(map[string]int64{"n": 10})
	flops, _ := rep.EvalFlops("k", env)
	// Both branches counted: 2 FP ops per iteration (upper bound).
	if flops != 20 {
		t.Errorf("flops = %d, want 20 (both branches)", flops)
	}
}

func TestStridedAndDownwardTrips(t *testing.T) {
	rep := analyze(t, `
void k(double *x, int n) {
	int i;
	for (i = 0; i < n; i += 2) { x[i] = x[i] + 1.0; }
	for (i = n; i >= 1; i--) { x[i] = x[i] + 1.0; }
}`)
	env := expr.EnvFromInts(map[string]int64{"n": 10})
	flops, _ := rep.EvalFlops("k", env)
	if flops != 5+10 {
		t.Errorf("flops = %d, want 15", flops)
	}
}

// TestEvalCounts: the bundled query-point evaluation agrees with the
// three per-metric evaluators it wraps.
func TestEvalCounts(t *testing.T) {
	rep := analyze(t, `
void k(double *x, double *y, int n) {
	int i;
	for (i = 0; i < n; i++) { y[i] = x[i] * 2.0 + 1.0; }
}`)
	env := expr.EnvFromInts(map[string]int64{"n": 8})
	c, err := rep.EvalCounts("k", env)
	if err != nil {
		t.Fatal(err)
	}
	flops, _ := rep.EvalFlops("k", env)
	loads, _ := rep.EvalLoads("k", env)
	stores, _ := rep.EvalStores("k", env)
	if c != (pbound.Counts{Flops: flops, Loads: loads, Stores: stores}) {
		t.Errorf("EvalCounts = %+v, want {%d %d %d}", c, flops, loads, stores)
	}
	if c.Flops != 16 || c.Loads != 8 || c.Stores != 8 {
		t.Errorf("counts = %+v, want {16 8 8}", c)
	}
	if _, err := rep.EvalCounts("nosuch", env); err == nil {
		t.Error("unknown function accepted")
	}
}

// TestFoldCounts pins PBound's counts for cc's testdata/fold.c at two
// sizes: constant subtrees, ternaries, hoistable invariants and the
// 2000-term left-deep and right-deep statements are all counted as the
// source spells them.
func TestFoldCounts(t *testing.T) {
	src, err := os.ReadFile("../cc/testdata/fold.c")
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, string(src))
	for _, tc := range []struct {
		fn   string
		n    int64
		want pbound.Counts
	}{
		{"fold_int", 4, pbound.Counts{Flops: 16, Loads: 8, Stores: 4}},
		{"fold_int", 1000, pbound.Counts{Flops: 4000, Loads: 2000, Stores: 1000}},
		{"fold_float", 4, pbound.Counts{Flops: 203, Loads: 20, Stores: 20}},
		{"fold_float", 1000, pbound.Counts{Flops: 8013023, Loads: 1001000, Stores: 1001000}},
		{"deep_left", 4, pbound.Counts{Flops: 17332, Loads: 1332, Stores: 0}},
		{"deep_left", 1000, pbound.Counts{Flops: 4333000, Loads: 333000, Stores: 0}},
		{"deep_right", 4, pbound.Counts{Flops: 14400, Loads: 1000, Stores: 0}},
		{"deep_right", 1000, pbound.Counts{Flops: 3600000, Loads: 250000, Stores: 0}},
	} {
		got, err := rep.EvalCounts(tc.fn, expr.EnvFromInts(map[string]int64{"n": tc.n}))
		if err != nil {
			t.Fatalf("%s n=%d: %v", tc.fn, tc.n, err)
		}
		if got != tc.want {
			t.Errorf("%s n=%d: counts %+v, want %+v", tc.fn, tc.n, got, tc.want)
		}
	}
}
