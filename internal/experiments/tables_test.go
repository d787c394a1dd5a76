package experiments

import (
	"strings"
	"testing"

	"mira/internal/arch"
	"mira/internal/engine"
	"mira/internal/report"
)

func tableText(t *testing.T, tab report.Table) string {
	t.Helper()
	rep := report.Report{Tables: []report.Table{tab}}
	return rep.Text()
}

func TestTableIRegeneratesSurvey(t *testing.T) {
	rows, err := TableI(bg(), testEng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	// Spot-check the paper's extremes.
	byName := map[string]TableIRow{}
	for _, r := range rows {
		byName[r.Application] = r
	}
	if r := byName["quake"]; int(r.Percentage+0.5) != 77 {
		t.Errorf("quake coverage = %.0f%%, want 77%%", r.Percentage)
	}
	if r := byName["mgrid"]; r.Percentage != 100 {
		t.Errorf("mgrid coverage = %.0f%%, want 100%%", r.Percentage)
	}
	if r := byName["lucas"]; r.Statements != 2070 || r.InLoops != 2050 {
		t.Errorf("lucas = %+v", r)
	}
	out := tableText(t, TableITable(rows))
	if !strings.Contains(out, "applu") || !strings.Contains(out, "84%") {
		t.Errorf("formatted table missing rows:\n%s", out)
	}
}

func TestTableIICategoriesAndFig6(t *testing.T) {
	s := MiniFESizes{NX: 6, NY: 6, NZ: 6, MaxIter: 8, NnzRowAnnotation: 19}
	rows, err := TableII(bg(), testEng, s)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"Integer arithmetic instruction":       false,
		"Integer control transfer instruction": false,
		"Integer data transfer instruction":    false,
		"SSE2 data movement instruction":       false,
		"SSE2 packed arithmetic instruction":   false,
		"64-bit mode instruction":              false,
	}
	var totalFrac float64
	for _, r := range rows {
		if _, ok := want[r.Category]; ok {
			want[r.Category] = true
		}
		if r.Count <= 0 {
			t.Errorf("category %q has count %d", r.Category, r.Count)
		}
		totalFrac += r.Fraction
	}
	for cat, seen := range want {
		if !seen {
			t.Errorf("Table II missing category %q", cat)
		}
	}
	if totalFrac < 0.999 || totalFrac > 1.001 {
		t.Errorf("Fig. 6 fractions sum to %g", totalFrac)
	}
	// Like the paper, integer data transfer dominates cg_solve.
	if rows[0].Category != "Integer data transfer instruction" {
		t.Errorf("top category = %q, want integer data transfer", rows[0].Category)
	}
	out := tableText(t, TableIITable(rows))
	if !strings.Contains(out, "SSE2 packed arithmetic") {
		t.Errorf("format missing rows:\n%s", out)
	}
}

// cgSolveQuery evaluates one cg_solve cell of kind on the miniFE
// configuration s against the description d.
func cgSolveQuery(t *testing.T, s MiniFESizes, kind engine.QueryKind, d *arch.Description) engine.QueryResult {
	t.Helper()
	p, err := report.NewRunner(testEng).Analyze(bg(), report.WorkloadRef{Name: "minife"})
	if err != nil {
		t.Fatal(err)
	}
	res := p.RunOne(bg(), engine.Query{Fn: "cg_solve", Env: s.MiniFEEnv(), Kind: kind, ArchDesc: d})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

func TestFine64Categories(t *testing.T) {
	s := MiniFESizes{NX: 5, NY: 5, NZ: 5, MaxIter: 4, NnzRowAnnotation: 18}
	d := arch.Arya()
	fine := cgSolveQuery(t, s, engine.KindFineCategories, d).Categories
	for _, cat := range []string{
		"SSE2 packed arithmetic", "SSE2 data movement",
		"GP data transfer: mov", "GP control transfer: jcc",
		"System: 64-bit mode (movsxd)",
	} {
		if fine[cat] <= 0 {
			t.Errorf("fine category %q empty", cat)
		}
	}
	// Every fine name must come from the description's 64-entry list.
	known := map[string]bool{}
	for _, c := range d.Categories {
		known[c] = true
	}
	for cat := range fine {
		if !known[cat] {
			t.Errorf("unknown fine category %q", cat)
		}
	}
	if len(d.Categories) != 64 {
		t.Errorf("description has %d categories, want 64", len(d.Categories))
	}
}

// fig7Config is a small Fig. 7 configuration: two STREAM and two DGEMM
// points and one miniFE brick (panels a–c).
func fig7Config() SuiteConfig {
	c := ScaledConfig()
	c.Fig7Stream, c.Fig7Dgemm, c.DgemmReps = []int64{1000, 2000}, []int64{8, 12}, 2
	c.MiniSmall = MiniFESizes{NX: 5, NY: 5, NZ: 5, MaxIter: 4, NnzRowAnnotation: 18}
	return c
}

func TestFig7Series(t *testing.T) {
	c := fig7Config()
	suite := SuiteMap(c)["fig7"]
	suite.Sections = suite.Sections[:3]
	for i := range suite.Sections {
		sec := validation(t, c, "fig7", i)
		rows := measure(t, sec)
		if len(rows) == 0 {
			t.Errorf("%s: bad series lengths", sec.Caption)
		}
		for _, r := range rows {
			if pct, ok := r.ErrorPct(); !ok || pct > 10 {
				t.Errorf("%s[%s]: error %.2f%% (ok=%v)", sec.Caption, r.Function, pct, ok)
			}
		}
	}
	rep, err := report.NewRunner(testEng).Run(bg(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("got %d tables", len(rep.Tables))
	}
	if out := rep.Text(); !strings.Contains(out, "Fig 7(a)") {
		t.Errorf("format missing panels:\n%s", out)
	}
}

func TestPredictionArithmeticIntensity(t *testing.T) {
	s := MiniFESizes{NX: 6, NY: 6, NZ: 6, MaxIter: 8, NnzRowAnnotation: 19}
	an := cgSolveQuery(t, s, engine.KindRoofline, arch.Arya()).Roofline
	// The paper computes 0.53 for cg_solve; our compiled binary's ratio
	// must land in the same regime (an FP-arithmetic-per-FP-move ratio
	// well below 1: CG is memory bound).
	if an.InstrAI <= 0.2 || an.InstrAI >= 1.0 {
		t.Errorf("instruction AI = %.3f, want in (0.2, 1.0)", an.InstrAI)
	}
	if !an.MemoryBound {
		t.Error("cg_solve not classified memory-bound")
	}
	if an.String() == "" {
		t.Error("empty analysis string")
	}
}

// TestPredictionSweepMatchesPointQueries: a compiled roofline sweep
// over explicit miniFE points (the prediction suite's grid form) returns
// exactly what the one-point roofline queries return, in order.
func TestPredictionSweepMatchesPointQueries(t *testing.T) {
	sizes := []MiniFESizes{
		{NX: 5, NY: 5, NZ: 5, MaxIter: 6, NnzRowAnnotation: 19},
		{NX: 6, NY: 6, NZ: 6, MaxIter: 8, NnzRowAnnotation: 19},
		{NX: 7, NY: 6, NZ: 5, MaxIter: 8, NnzRowAnnotation: 19},
	}
	points := make([]map[string]int64, len(sizes))
	for i, s := range sizes {
		points[i] = s.MiniFEPoint()
	}
	p, err := report.NewRunner(testEng).Analyze(bg(), report.WorkloadRef{Name: "minife"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Sweep(bg(), engine.SweepSpec{
		Fn: "cg_solve", Kind: engine.KindRoofline, Points: points, ArchDesc: arch.Arya(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(sizes) {
		t.Fatalf("rooflines = %d, want %d", len(got.Points), len(sizes))
	}
	for i, s := range sizes {
		want := cgSolveQuery(t, s, engine.KindRoofline, arch.Arya()).Roofline
		if pt := got.Points[i]; pt.Err != nil || *pt.Roofline != *want {
			t.Errorf("size %dx%dx%d: sweep %+v (err %v) != query %+v", s.NX, s.NY, s.NZ, pt.Roofline, pt.Err, want)
		}
	}
}

func TestAblationPBoundVsMira(t *testing.T) {
	c := ScaledConfig()
	c.AblationSizes = []int64{64, 256}
	sec := validation(t, c, "ablation", 0)
	rows := measure(t, sec)
	for i, r := range rows {
		n := c.AblationSizes[i]
		// Mira (binary-aware) must be exact: the kernel is affine.
		if r.Static != r.Dynamic {
			t.Errorf("n=%d: Mira=%d dynamic=%d, want exact", n, r.Static, r.Dynamic)
		}
		// PBound must overestimate: it counts the folded constants and
		// hoisted invariants every iteration.
		if r.PBound <= r.Dynamic {
			t.Errorf("n=%d: PBound=%d not an overestimate of %d", n, r.PBound, r.Dynamic)
		}
		pbound, _ := report.ValidationRow{Dynamic: r.Dynamic, Static: r.PBound}.ErrorPct()
		if pbound < 10 {
			t.Errorf("n=%d: PBound error only %.1f%%; optimization gap not visible", n, pbound)
		}
	}
	if out := tableText(t, sec.Table(rows)); !strings.Contains(out, "PBound") {
		t.Errorf("format broken:\n%s", out)
	}
}

// TestSuites: every named suite is well-formed and the scaled
// configuration's cheap suites run end to end through a runner.
func TestSuitesRun(t *testing.T) {
	c := ScaledConfig()
	names := SuiteNames(c)
	wantNames := []string{"table_i", "table_ii", "table_iii", "table_iv", "table_v", "fig7", "prediction", "multiarch", "ablation"}
	if len(names) != len(wantNames) {
		t.Fatalf("suites = %v", names)
	}
	for i := range names {
		if names[i] != wantNames[i] {
			t.Errorf("suite %d = %q, want %q", i, names[i], wantNames[i])
		}
	}
	suites := SuiteMap(c)
	r := report.NewRunner(testEng)
	for _, name := range []string{"table_i", "table_ii", "prediction", "ablation"} {
		rep, err := r.Run(bg(), suites[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Suite != name || rep.Rows() == 0 {
			t.Errorf("%s: empty report %+v", name, rep)
		}
		if errs := rep.Errs(); errs != nil {
			t.Errorf("%s: row errors: %v", name, errs)
		}
	}
}
