package experiments

import (
	"context"
	"strings"
	"testing"

	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/report"
)

// testEng is the shared test engine; experiments take it explicitly, so
// every test passes the same engine and a background context the way
// production callers (report runner, CLIs) do.
var testEng = engine.New(engine.Options{})

func bg() context.Context { return context.Background() }

// validation returns section i of the named suite under c.
func validation(t *testing.T, c SuiteConfig, suite string, i int) report.ValidationSection {
	t.Helper()
	sec, ok := SuiteMap(c)[suite].Sections[i].(report.ValidationSection)
	if !ok {
		t.Fatalf("%s section %d is not a validation section", suite, i)
	}
	return sec
}

// measure runs a validation section's static and dynamic columns.
func measure(t *testing.T, sec report.ValidationSection) []report.ValidationRow {
	t.Helper()
	rows, err := sec.Rows(bg(), report.NewRunner(testEng))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// staticFPI evaluates one KindStatic cell of a registry workload.
func staticFPI(t *testing.T, workload, fn string, env map[string]int64) int64 {
	t.Helper()
	a, err := report.NewRunner(testEng).Analyze(bg(), report.WorkloadRef{Name: workload})
	if err != nil {
		t.Fatal(err)
	}
	res := a.RunOne(bg(), engine.Query{Fn: fn, Env: expr.EnvFromInts(env), Kind: engine.KindStatic})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Metrics.FPI()
}

// TestStreamStaticMatchesDynamic: STREAM is fully affine with no external
// calls, so the static model must match the VM exactly at any size.
func TestStreamStaticMatchesDynamic(t *testing.T) {
	c := ScaledConfig()
	c.StreamSizes = []int64{1000, 10000}
	for i, r := range measure(t, validation(t, c, "table_iii", 0)) {
		n := c.StreamSizes[i]
		dyn, static := r.Dynamic, r.Static
		if dyn != static {
			t.Errorf("n=%d: dynamic=%d static=%d", n, dyn, static)
		}
		// FPI magnitude: scale(1) + add(1) + triad(2) per element per
		// NTIMES iteration = 40n.
		if want := 40 * n; static != want {
			t.Errorf("n=%d: FPI=%d, want %d", n, static, want)
		}
	}
}

// TestStreamStaticAtPaperSizes evaluates the closed-form model at the
// paper's full sizes instantly (Table III static column).
func TestStreamStaticAtPaperSizes(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want int64
	}{
		{2_000_000, 80_000_000},      // paper: Mira 8.20E7
		{50_000_000, 2_000_000_000},  // paper: Mira 4.100E9 (per-kernel accounting differs; see the package doc)
		{100_000_000, 4_000_000_000}, // paper: Mira 2.050E10
	} {
		got := staticFPI(t, "stream", "stream", map[string]int64{"n": c.n})
		if got != c.want {
			t.Errorf("n=%d: FPI=%d, want %d", c.n, got, c.want)
		}
	}
}

func TestDgemmStaticMatchesDynamic(t *testing.T) {
	c := ScaledConfig()
	c.DgemmSizes, c.DgemmReps = []int64{8, 24}, 3
	for i, r := range measure(t, validation(t, c, "table_iv", 0)) {
		n := c.DgemmSizes[i]
		dyn, static := r.Dynamic, r.Static
		if dyn != static {
			t.Errorf("n=%d: dynamic=%d static=%d", n, dyn, static)
		}
		// 2n^3 (inner mul+add) + 3n^2 (beta*c[ij] mul, alpha*t mul, add).
		if want := 3 * (2*n*n*n + 3*n*n); static != want {
			t.Errorf("n=%d: FPI=%d, want %d", n, static, want)
		}
	}
}

// minifeRows measures Table V's rows at the single configuration s.
func minifeRows(t *testing.T, s MiniFESizes) []report.ValidationRow {
	t.Helper()
	c := ScaledConfig()
	c.MiniSmall = s
	sec := validation(t, c, "table_v", 0)
	sec.Points = sec.Points[:1]
	return measure(t, sec)
}

func TestMiniFEValidation(t *testing.T) {
	s := MiniFESizes{NX: 6, NY: 6, NZ: 6, MaxIter: 8}
	// Bind the annotation to the rounded true average row length, the
	// best value a careful user could supply.
	s.NnzRowAnnotation = (s.TrueNNZ() + s.Rows()/2) / s.Rows()
	rows := minifeRows(t, s)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Dynamic == 0 || r.Static == 0 {
			t.Errorf("%s: zero counts: %+v", r.Function, r)
		}
		// Residual error: annotation rounding plus the invisible sqrt
		// library body. Both are small (paper's Table V band is <= 3.08%).
		if pct, ok := r.ErrorPct(); !ok || pct > 5 {
			t.Errorf("%s: error %.2f%% too large or undefined (dyn=%d static=%d)",
				r.Function, pct, r.Dynamic, r.Static)
		}
	}
	// waxpby is fully affine: error must be ~0 (only call-free body).
	for _, r := range rows {
		if r.Function == "waxpby" && r.Dynamic != r.Static {
			t.Errorf("waxpby: dyn=%d static=%d, want exact", r.Dynamic, r.Static)
		}
	}
}

// TestMiniFEExactAnnotation: binding nnz_row to the true average makes the
// matvec prediction land within the rounding of the average.
func TestMiniFEExactAnnotation(t *testing.T) {
	s := MiniFESizes{NX: 6, NY: 6, NZ: 6, MaxIter: 4, NnzRowAnnotation: 0}
	// True average nnz/row for 6^3: (16^3)/216 = 18.96 -> use rounded 19.
	s.NnzRowAnnotation = (s.TrueNNZ() + s.Rows()/2) / s.Rows()
	var r report.ValidationRow
	for _, row := range minifeRows(t, s) {
		if row.Function == "MatVec::operator()" {
			r = row
		}
	}
	if pct, ok := r.ErrorPct(); !ok || pct > 2.0 {
		t.Errorf("matvec with exact annotation: err=%.3f%% ok=%v (dyn=%d static=%d)",
			pct, ok, r.Dynamic, r.Static)
	}
}

func TestValidationRowFormatting(t *testing.T) {
	r := report.ValidationRow{Label: report.Str("2M"), Function: "stream", Dynamic: 100, Static: 99}
	if pct, ok := r.ErrorPct(); !ok || pct != 1.0 {
		t.Errorf("ErrorPct = %g, %v", pct, ok)
	}
	tab := report.ValidationSection{Name: "t", Caption: "Table X"}.Table([]report.ValidationRow{r})
	if tab.Name != "t" {
		t.Errorf("table name = %q", tab.Name)
	}
	rep := report.Report{Tables: []report.Table{tab}}
	if s := rep.Text(); !strings.Contains(s, "1.000%") {
		t.Errorf("table text = %q", s)
	}
}

// TestValidationRowZeroDynamic is the division-by-zero regression test:
// a zero dynamic count must report an undefined error — "n/a" in the
// table rendering, null in JSON — never a fabricated percentage or an
// infinity, in every layout (the ablation's two error columns included).
func TestValidationRowZeroDynamic(t *testing.T) {
	rows := []report.ValidationRow{
		{Label: report.Str("0"), Function: "empty", Dynamic: 0, Static: 5},
		{Label: report.Str("0"), Function: "both_zero", Dynamic: 0, Static: 0},
		{Label: report.Str("1"), Function: "fine", Dynamic: 100, Static: 100},
	}
	ablation := []report.ValidationRow{
		{Label: report.Int(0), Function: "smooth", Dynamic: 0, Static: 5, PBound: 7},
	}
	for _, r := range append(rows[:2:2], ablation...) {
		if _, ok := r.ErrorPct(); ok {
			t.Errorf("%s: ErrorPct defined for zero dynamic", r.Function)
		}
	}

	rep := report.Report{Suite: "zero", Tables: []report.Table{
		report.ValidationSection{Name: "t", Caption: "Zero"}.Table(rows),
		report.ValidationSection{Name: "a", Caption: "Zero ablation", Layout: report.LayoutAblation}.Table(ablation),
	}}
	text := rep.Text()
	if strings.Contains(text, "Inf") || strings.Contains(text, "NaN") {
		t.Errorf("table renders an infinity:\n%s", text)
	}
	if !strings.Contains(text, "n/a") {
		t.Errorf("table does not render n/a:\n%s", text)
	}
	var sb strings.Builder
	if err := rep.EncodeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	js := sb.String()
	if !strings.Contains(js, `["0","empty",0,5,null]`) {
		t.Errorf("JSON does not encode the undefined error as null: %s", js)
	}
	if !strings.Contains(js, `["1","fine",100,100,0]`) {
		t.Errorf("JSON lost the defined error: %s", js)
	}
	if !strings.Contains(js, `[0,0,5,null,7,null]`) {
		t.Errorf("JSON does not encode the ablation's undefined errors as null: %s", js)
	}
}
