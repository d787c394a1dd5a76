package experiments

import (
	"context"
	"sort"

	"mira/internal/benchprogs"
	"mira/internal/engine"
	"mira/internal/loopcov"
	"mira/internal/parser"
	"mira/internal/report"
	"mira/internal/synth"
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
	p, err := eng.AnalyzeCtx(ctx, "minife.c", benchprogs.MiniFE)
	if err != nil {
		return nil, err
	}
	res := p.RunOne(ctx, engine.Query{Fn: "cg_solve", Env: s.MiniFEEnv(), Kind: engine.KindCategories})
	if res.Err != nil {
		return nil, res.Err
	}
	var total int64
	for _, n := range res.Categories {
		total += n
	}
	var rows []CategoryRow
	for cat, n := range res.Categories {
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
