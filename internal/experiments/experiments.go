// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sec. IV). Each experiment pairs the static model's
// prediction ("Mira") against an actual execution of the same binary on
// the virtual machine ("TAU", the reproduction's stand-in for
// instrumentation-based TAU/PAPI measurement), and reports the relative
// error exactly as Tables III–V do.
//
// The package holds no state: every experiment takes the analysis
// engine and the scheduling context explicitly, so concurrent callers
// (the report runner, the daemon, tests) share one engine's caches
// without stepping on each other. The named paper suites in suites.go
// wrap these functions as report.Suite values — the declarative form
// the CLI and daemon serve.
//
// Scale note (documented in EXPERIMENTS.md): dynamic runs use
// proportionally scaled problem sizes — interpreting 100M-element STREAM
// on a VM is the part of the paper's testbed we must simulate — while the
// static model is additionally evaluated at the paper's full sizes, which
// closed-form evaluation makes free.
package experiments

import (
	"context"
	"fmt"

	"mira/internal/benchprogs"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/report"
	"mira/internal/vm"
)

// ValidationRow is one line of a Table III/IV/V-style comparison.
type ValidationRow struct {
	Label    string // problem size or function name
	Function string
	Dynamic  int64 // "TAU" FPI (VM measurement)
	Static   int64 // "Mira" FPI (model evaluation)
}

// ErrorPct returns the |static-dynamic|/dynamic percentage and whether
// it is defined: a zero dynamic count has no meaningful relative error
// (it used to render as an arbitrary figure; reports now show "n/a" and
// encode JSON null).
func (r ValidationRow) ErrorPct() (float64, bool) {
	if r.Dynamic == 0 {
		return 0, false
	}
	d := float64(r.Static-r.Dynamic) / float64(r.Dynamic) * 100
	if d < 0 {
		return -d, true
	}
	return d, true
}

// errCell converts the row's relative error to a report cell: the
// percentage, or null when undefined.
func (r ValidationRow) errCell() report.Value {
	pct, ok := r.ErrorPct()
	if !ok {
		return report.Null()
	}
	return report.Float(pct)
}

// ValidationColumns is the Table III/IV/V column schema — the paper's
// fixed-width layout, unchanged from the legacy renderer.
func ValidationColumns() []report.Column {
	return []report.Column{
		{Name: "Size", Kind: report.ColString, Width: 14},
		{Name: "Function", Kind: report.ColString, Width: 28},
		{Name: "TAU", Kind: report.ColFloat, Prec: 4, Width: 14},
		{Name: "Mira", Kind: report.ColFloat, Prec: 4, Width: 14},
		{Name: "Error", Kind: report.ColPct, Prec: 3},
	}
}

// ValidationTable assembles validation rows into a report table under
// the shared schema.
func ValidationTable(name, caption string, rows []ValidationRow) report.Table {
	t := report.Table{Name: name, Caption: caption, Columns: ValidationColumns()}
	t.Rows = make([]report.Row, len(rows))
	for i, r := range rows {
		t.Rows[i] = report.Row{Cells: []report.Value{
			report.Str(r.Label), report.Str(r.Function),
			report.Int(r.Dynamic), report.Int(r.Static),
			r.errCell(),
		}}
	}
	return t
}

// analyzed resolves one workload source through the engine's
// content-hash cache.
func analyzed(ctx context.Context, eng *engine.Engine, name, src string) (*engine.Analysis, error) {
	return eng.AnalyzeCtx(ctx, name, src)
}

// runQueries evaluates a query batch against one analyzed workload and
// flattens the per-query errors: experiment sweeps want the first
// failure, not a partial table.
func runQueries(ctx context.Context, a *engine.Analysis, queries []engine.Query) ([]engine.QueryResult, error) {
	results := a.Run(ctx, queries)
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s %s: %w", r.Query.Kind, r.Query.Fn, r.Err)
		}
	}
	return results, nil
}

// staticFPI evaluates one KindStatic cell — the single-cell degenerate
// case of a query batch.
func staticFPI(ctx context.Context, a *engine.Analysis, fn string, env expr.Env) (int64, error) {
	res, err := runQueries(ctx, a, []engine.Query{{Fn: fn, Env: env, Kind: engine.KindStatic}})
	if err != nil {
		return 0, err
	}
	return res[0].Metrics.FPI(), nil
}

// sweepFPI evaluates fn's FPI curve over one axis through the compiled
// sweep engine: the model is partially evaluated once and every size is
// a flat expression evaluation. This is how every scaling column of the
// evaluation section (Table III/IV sizes, the Fig. 7 x-axes) is
// produced.
func sweepFPI(ctx context.Context, a *engine.Analysis, fn, axis string, values []int64, base map[string]int64) ([]int64, error) {
	res, err := a.Sweep(ctx, engine.SweepSpec{
		Fn:   fn,
		Kind: engine.KindStatic,
		Axes: []engine.SweepAxis{{Name: axis, Values: values}},
		Base: base,
	})
	if err != nil {
		return nil, err
	}
	return res.FPISeries()
}

// ---------------------------------------------------------------------------
// STREAM (Table III, Fig. 7a)

// StreamPipeline analyzes the STREAM workload.
func StreamPipeline(ctx context.Context, eng *engine.Engine) (*engine.Analysis, error) {
	return analyzed(ctx, eng, "stream.c", benchprogs.Stream)
}

// StreamStaticFPI evaluates the model's FPI for array length n.
func StreamStaticFPI(ctx context.Context, eng *engine.Engine, n int64) (int64, error) {
	p, err := StreamPipeline(ctx, eng)
	if err != nil {
		return 0, err
	}
	return staticFPI(ctx, p, "stream", expr.EnvFromInts(map[string]int64{"n": n}))
}

// StreamDynamicFPI executes STREAM on the VM for array length n and
// returns the measured FPI of the stream entry (inclusive).
func StreamDynamicFPI(ctx context.Context, eng *engine.Engine, n int64) (int64, error) {
	p, err := StreamPipeline(ctx, eng)
	if err != nil {
		return 0, err
	}
	m := p.NewMachine()
	a := m.Alloc(uint64(n))
	b := m.Alloc(uint64(n))
	c := m.Alloc(uint64(n))
	if _, err := m.Run("stream", vm.Int(int64(a)), vm.Int(int64(b)), vm.Int(int64(c)), vm.Int(n)); err != nil {
		return 0, err
	}
	st, ok := m.FuncStatsByName("stream")
	if !ok {
		return 0, fmt.Errorf("no stats for stream")
	}
	return int64(st.FPIInclusive()), nil
}

// TableIII reproduces the STREAM FPI validation. dynSizes lists sizes for
// paired static/dynamic rows (the paper's 50M and 100M points run
// statically only, which the VM substitutes by scaling — see
// EXPERIMENTS.md). The static column is one compiled sweep over the size
// axis; the dynamic column fans the VM runs out across the engine's
// worker bound.
func TableIII(ctx context.Context, eng *engine.Engine, dynSizes []int64) ([]ValidationRow, error) {
	p, err := StreamPipeline(ctx, eng)
	if err != nil {
		return nil, err
	}
	statics, err := sweepFPI(ctx, p, "stream", "n", dynSizes, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]ValidationRow, len(dynSizes))
	err = engine.ForEachCtx(ctx, eng.Workers(), len(dynSizes), func(i int) error {
		n := dynSizes[i]
		dyn, err := StreamDynamicFPI(ctx, eng, n)
		if err != nil {
			return err
		}
		rows[i] = ValidationRow{
			Label: sizeLabel(n), Function: "stream",
			Dynamic: dyn, Static: statics[i],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// sizeLabel renders a STREAM size the way the paper's Table III labels
// it (millions of elements).
func sizeLabel(n int64) string {
	if n >= 1_000_000 && n%1_000_000 == 0 {
		return fmt.Sprintf("%dM", n/1_000_000)
	}
	return fmt.Sprintf("%d", n)
}

// ---------------------------------------------------------------------------
// DGEMM (Table IV, Fig. 7b)

// DgemmPipeline analyzes the DGEMM workload.
func DgemmPipeline(ctx context.Context, eng *engine.Engine) (*engine.Analysis, error) {
	return analyzed(ctx, eng, "dgemm.c", benchprogs.Dgemm)
}

// DgemmStaticFPI evaluates the model's FPI for matrix order n with nrep
// repetitions.
func DgemmStaticFPI(ctx context.Context, eng *engine.Engine, n, nrep int64) (int64, error) {
	p, err := DgemmPipeline(ctx, eng)
	if err != nil {
		return 0, err
	}
	return staticFPI(ctx, p, "dgemm_bench", expr.EnvFromInts(map[string]int64{"n": n, "nrep": nrep}))
}

// DgemmDynamicFPI executes DGEMM on the VM.
func DgemmDynamicFPI(ctx context.Context, eng *engine.Engine, n, nrep int64) (int64, error) {
	p, err := DgemmPipeline(ctx, eng)
	if err != nil {
		return 0, err
	}
	m := p.NewMachine()
	words := uint64(n * n)
	a := m.Alloc(words)
	b := m.Alloc(words)
	c := m.Alloc(words)
	for i := uint64(0); i < words; i++ {
		m.SetF(a+i, 1.0)
		m.SetF(b+i, 2.0)
	}
	if _, err := m.Run("dgemm_bench", vm.Int(int64(a)), vm.Int(int64(b)), vm.Int(int64(c)),
		vm.Int(n), vm.Int(nrep)); err != nil {
		return 0, err
	}
	st, ok := m.FuncStatsByName("dgemm_bench")
	if !ok {
		return 0, fmt.Errorf("no stats for dgemm_bench")
	}
	return int64(st.FPIInclusive()), nil
}

// TableIV reproduces the DGEMM FPI validation: the static column is one
// compiled sweep over the size axis (nrep fixed in the base bindings),
// the dynamic column fans out across the engine's worker bound.
func TableIV(ctx context.Context, eng *engine.Engine, sizes []int64, nrep int64) ([]ValidationRow, error) {
	p, err := DgemmPipeline(ctx, eng)
	if err != nil {
		return nil, err
	}
	statics, err := sweepFPI(ctx, p, "dgemm_bench", "n", sizes, map[string]int64{"nrep": nrep})
	if err != nil {
		return nil, err
	}
	rows := make([]ValidationRow, len(sizes))
	err = engine.ForEachCtx(ctx, eng.Workers(), len(sizes), func(i int) error {
		dyn, err := DgemmDynamicFPI(ctx, eng, sizes[i], nrep)
		if err != nil {
			return err
		}
		rows[i] = ValidationRow{
			Label: fmt.Sprintf("%d", sizes[i]), Function: "dgemm",
			Dynamic: dyn, Static: statics[i],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
