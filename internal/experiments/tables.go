package experiments

import (
	"context"
	"fmt"
	"sort"

	"mira/internal/benchprogs"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/loopcov"
	"mira/internal/parser"
	"mira/internal/report"
	"mira/internal/synth"
	"mira/internal/vm"
)

// ---------------------------------------------------------------------------
// Table I: loop coverage survey

// TableIRow is one loop-coverage row.
type TableIRow struct {
	Application string
	Loops       int
	Statements  int
	InLoops     int
	Percentage  float64
}

// TableI regenerates the loop-coverage survey: synthesize each surveyed
// application's profile, parse it with the real front end, and measure.
// The ten applications are independent, so the survey fans out across
// the engine's worker bound; rows come back in profile order.
func TableI(ctx context.Context, eng *engine.Engine) ([]TableIRow, error) {
	profiles := synth.TableIProfiles
	rows := make([]TableIRow, len(profiles))
	err := engine.ForEachCtx(ctx, eng.Workers(), len(profiles), func(i int) error {
		p := profiles[i]
		src, err := synth.Generate(p)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(p.Name+".c", src)
		if err != nil {
			return err
		}
		st := loopcov.Measure(file)
		rows[i] = TableIRow{
			Application: p.Name,
			Loops:       st.Loops,
			Statements:  st.Statements,
			InLoops:     st.InLoops,
			Percentage:  st.Percentage(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// TableITable assembles Table I rows under the paper's schema.
func TableITable(rows []TableIRow) report.Table {
	t := report.Table{
		Name:    "table_i",
		Caption: "Table I: Loop coverage in high-performance applications",
		Columns: []report.Column{
			{Name: "Application", Kind: report.ColString, Width: 12},
			{Name: "Loops", Kind: report.ColInt, Width: 8},
			{Name: "Statements", Kind: report.ColInt, Width: 12},
			{Name: "InLoops", Kind: report.ColInt, Width: 12},
			{Name: "Percentage", Kind: report.ColPct, Prec: 0},
		},
	}
	t.Rows = make([]report.Row, len(rows))
	for i, r := range rows {
		t.Rows[i] = report.Row{Cells: []report.Value{
			report.Str(r.Application), report.Int(int64(r.Loops)),
			report.Int(int64(r.Statements)), report.Int(int64(r.InLoops)),
			report.Float(r.Percentage),
		}}
	}
	return t
}

// ---------------------------------------------------------------------------
// Table II + Fig. 6: categorized instruction counts of cg_solve

// CategoryRow is one Table II row.
type CategoryRow struct {
	Category string
	Count    int64
	Fraction float64 // of total, for Fig. 6's distribution
}

// TableII evaluates the static model of cg_solve via a KindCategories
// query and derives the Fig. 6 distribution from the bucketed counts.
func TableII(ctx context.Context, eng *engine.Engine, s MiniFESizes) ([]CategoryRow, error) {
	p, err := MiniFEPipeline(ctx, eng)
	if err != nil {
		return nil, err
	}
	res, err := runQueries(ctx, p, []engine.Query{
		{Fn: "cg_solve", Env: s.MiniFEEnv(), Kind: engine.KindCategories},
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range res[0].Categories {
		total += n
	}
	var rows []CategoryRow
	for cat, n := range res[0].Categories {
		rows = append(rows, CategoryRow{Category: cat, Count: n})
	}
	// Stable count-descending with a category-name tiebreak: tied rows
	// must render identically on every regeneration (the table is diffed
	// against cached artifacts byte for byte).
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Category < rows[j].Category
	})
	for i := range rows {
		rows[i].Fraction = float64(rows[i].Count) / float64(total)
	}
	return rows, nil
}

// TableIITable assembles the category table and Fig. 6 distribution
// under the paper's schema.
func TableIITable(rows []CategoryRow) report.Table {
	t := report.Table{
		Name:    "table_ii",
		Caption: "Table II: Categorized Instruction Counts of Function cg_solve",
		Columns: []report.Column{
			{Name: "Category", Kind: report.ColString, Width: 42},
			{Name: "Count", Kind: report.ColFloat, Prec: 3, Width: 14},
			{Name: "Share (Fig. 6)", Kind: report.ColPct, Prec: 1},
		},
	}
	t.Rows = make([]report.Row, len(rows))
	for i, r := range rows {
		t.Rows[i] = report.Row{Cells: []report.Value{
			report.Str(r.Category), report.Int(r.Count), report.Float(r.Fraction * 100),
		}}
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 7: validation series

// Fig7Series holds one validation sweep (sizes vs static/dynamic FPI).
type Fig7Series struct {
	Title  string
	Labels []string
	TAU    []int64
	Mira   []int64
}

// Fig7 collects the four panels' series: STREAM sweep, DGEMM sweep, and
// the two miniFE configurations. The static ("Mira") curves are compiled
// sweeps over the size axes — the model is partially evaluated once per
// workload and the whole curve is flat expression evaluation; the
// dynamic ("TAU") columns execute per point on the VM.
func Fig7(ctx context.Context, eng *engine.Engine, streamSizes []int64, dgemmSizes []int64, dgemmReps int64, minife []MiniFESizes) ([]Fig7Series, error) {
	var out []Fig7Series

	streamP, err := StreamPipeline(ctx, eng)
	if err != nil {
		return nil, err
	}
	streamStatic, err := sweepFPI(ctx, streamP, "stream", "n", streamSizes, nil)
	if err != nil {
		return nil, err
	}
	sStream := Fig7Series{Title: "Fig 7(a): STREAM FPI", Mira: streamStatic}
	for _, n := range streamSizes {
		dyn, err := StreamDynamicFPI(ctx, eng, n)
		if err != nil {
			return nil, err
		}
		sStream.Labels = append(sStream.Labels, fmt.Sprintf("%d", n))
		sStream.TAU = append(sStream.TAU, dyn)
	}
	out = append(out, sStream)

	dgemmP, err := DgemmPipeline(ctx, eng)
	if err != nil {
		return nil, err
	}
	dgemmStatic, err := sweepFPI(ctx, dgemmP, "dgemm_bench", "n", dgemmSizes, map[string]int64{"nrep": dgemmReps})
	if err != nil {
		return nil, err
	}
	sDgemm := Fig7Series{Title: "Fig 7(b): DGEMM FPI", Mira: dgemmStatic}
	for _, n := range dgemmSizes {
		dyn, err := DgemmDynamicFPI(ctx, eng, n, dgemmReps)
		if err != nil {
			return nil, err
		}
		sDgemm.Labels = append(sDgemm.Labels, fmt.Sprintf("%d", n))
		sDgemm.TAU = append(sDgemm.TAU, dyn)
	}
	out = append(out, sDgemm)

	miniSeries := make([]Fig7Series, len(minife))
	err = engine.ForEachCtx(ctx, eng.Workers(), len(minife), func(pi int) error {
		cfg := minife[pi]
		s := Fig7Series{Title: fmt.Sprintf("Fig 7(%c): miniFE FPI %dx%dx%d", 'c'+pi, cfg.NX, cfg.NY, cfg.NZ)}
		dyn, err := MiniFEDynamic(ctx, eng, cfg)
		if err != nil {
			return err
		}
		static, err := MiniFEStatic(ctx, eng, cfg)
		if err != nil {
			return err
		}
		for _, fn := range []string{"waxpby", "MatVec::operator()", "cg_solve"} {
			s.Labels = append(s.Labels, fn)
			s.TAU = append(s.TAU, dyn[fn])
			s.Mira = append(s.Mira, static[fn])
		}
		miniSeries[pi] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, miniSeries...)
	return out, nil
}

// Fig7Tables renders the series as report tables, one per panel, in the
// paper's indented row-plot style (aligned text "plots" in row form).
func Fig7Tables(series []Fig7Series) []report.Table {
	out := make([]report.Table, len(series))
	for si, s := range series {
		t := report.Table{
			Name:    fmt.Sprintf("fig7_%d", si),
			Caption: s.Title,
			Indent:  2,
			Columns: []report.Column{
				{Name: "x", Kind: report.ColString, Width: 24},
				{Name: "TAU", Kind: report.ColFloat, Prec: 4, Width: 14},
				{Name: "Mira", Kind: report.ColFloat, Prec: 4, Width: 14},
				{Name: "err", Kind: report.ColPct, Prec: 3},
			},
		}
		t.Rows = make([]report.Row, len(s.Labels))
		for i := range s.Labels {
			r := ValidationRow{Dynamic: s.TAU[i], Static: s.Mira[i]}
			t.Rows[i] = report.Row{Cells: []report.Value{
				report.Str(s.Labels[i]), report.Int(s.TAU[i]), report.Int(s.Mira[i]), r.errCell(),
			}}
		}
		out[si] = t
	}
	return out
}

// ---------------------------------------------------------------------------
// Ablation: PBound (source-only) vs Mira (source+binary)

// AblationRow compares estimators against the VM ground truth.
type AblationRow struct {
	N            int64
	Dynamic      int64 // VM-measured FPI
	Mira         int64 // binary-aware static FPI
	PBound       int64 // source-only FP-operation bound
	MiraErrPct   float64
	PBoundErrPct float64
}

// Ablation runs the smooth kernel: its body carries constant-foldable and
// loop-invariant FP subexpressions, so source-only counting overestimates
// what the optimized binary executes, while Mira tracks the binary. Both
// estimator columns come from one query matrix — a KindStatic and a
// KindPBound cell per size, the PBound baseline now a first-class query
// kind instead of a hand-rolled second pipeline.
func Ablation(ctx context.Context, eng *engine.Engine, sizes []int64) ([]AblationRow, error) {
	p, err := analyzed(ctx, eng, "ablation.c", ablationSrc)
	if err != nil {
		return nil, err
	}
	env := func(n int64) expr.Env { return expr.EnvFromInts(map[string]int64{"n": n}) }
	queries := make([]engine.Query, 0, 2*len(sizes))
	for _, n := range sizes {
		queries = append(queries,
			engine.Query{Fn: "smooth", Env: env(n), Kind: engine.KindStatic},
			engine.Query{Fn: "smooth", Env: env(n), Kind: engine.KindPBound},
		)
	}
	statics, err := runQueries(ctx, p, queries)
	if err != nil {
		return nil, err
	}

	rows := make([]AblationRow, len(sizes))
	err = engine.ForEachCtx(ctx, eng.Workers(), len(sizes), func(i int) error {
		n := sizes[i]
		dyn, err := ablationDynamic(p, n)
		if err != nil {
			return err
		}
		row := AblationRow{
			N: n, Dynamic: dyn,
			Mira:   statics[2*i].Metrics.FPI(),
			PBound: statics[2*i+1].PBound.Flops,
		}
		row.MiraErrPct = pctErr(row.Mira, dyn)
		row.PBoundErrPct = pctErr(row.PBound, dyn)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func pctErr(got, want int64) float64 {
	if want == 0 {
		return 0
	}
	d := float64(got-want) / float64(want) * 100
	if d < 0 {
		return -d
	}
	return d
}

func ablationDynamic(p *engine.Analysis, n int64) (int64, error) {
	m := p.NewMachine()
	u := m.Alloc(uint64(n))
	f := m.Alloc(uint64(n))
	for i := int64(0); i < n; i++ {
		m.SetF(u+uint64(i), 1.0)
		m.SetF(f+uint64(i), 0.5)
	}
	if _, err := m.Run("smooth", vm.Int(int64(u)), vm.Int(int64(f)), vm.Int(n), vm.Float(0.01)); err != nil {
		return 0, err
	}
	st, ok := m.FuncStatsByName("smooth")
	if !ok {
		return 0, fmt.Errorf("no stats for smooth")
	}
	return int64(st.FPIInclusive()), nil
}

// AblationTable assembles ablation rows under the legacy schema.
func AblationTable(rows []AblationRow) report.Table {
	t := report.Table{
		Name:    "ablation",
		Caption: "Ablation: source-only (PBound) vs source+binary (Mira) FPI estimates",
		Columns: []report.Column{
			{Name: "n", Kind: report.ColInt, Width: 10},
			{Name: "VM measured", Kind: report.ColInt, Width: 14},
			{Name: "Mira", Kind: report.ColInt, Width: 14},
			{Name: "Mira err", Kind: report.ColPct, Prec: 2, Width: 12},
			{Name: "PBound", Kind: report.ColInt, Width: 14},
			{Name: "PBound err", Kind: report.ColPct, Prec: 2},
		},
	}
	t.Rows = make([]report.Row, len(rows))
	for i, r := range rows {
		t.Rows[i] = report.Row{Cells: []report.Value{
			report.Int(r.N), report.Int(r.Dynamic), report.Int(r.Mira),
			report.Float(r.MiraErrPct), report.Int(r.PBound), report.Float(r.PBoundErrPct),
		}}
	}
	return t
}

// ablationSrc aliases the benchprogs kernel.
var ablationSrc = benchprogs.Ablation
