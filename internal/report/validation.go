package report

import (
	"context"
	"fmt"

	"mira/internal/engine"
	"mira/internal/vm"
)

// ValidationRow is one static-versus-measured comparison: the model's
// FPI ("Mira") against the VM's ("TAU", the stand-in for TAU/PAPI
// instrumentation) for one function at one point.
type ValidationRow struct {
	// Label is the point's label cell: a size string ("2M", "6x6x6") or
	// an integer size.
	Label Value
	// Function is the compared function's display name.
	Function string
	// Dynamic is the VM-measured FPI.
	Dynamic int64
	// Static is the model's FPI.
	Static int64
	// PBound is the source-only FP-operation bound (LayoutAblation).
	PBound int64
}

// ErrorPct returns the |static-dynamic|/dynamic percentage and whether
// it is defined: a zero dynamic count has no meaningful relative error
// (reports show "n/a" and encode JSON null).
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

// errCell converts the row's relative error to a cell: the percentage,
// or null when undefined.
func (r ValidationRow) errCell() Value {
	pct, ok := r.ErrorPct()
	if !ok {
		return Null()
	}
	return Float(pct)
}

// ValidationLayout selects a ValidationSection's table shape. Every
// layout lists rows point-major, functions in declaration order.
type ValidationLayout int

const (
	// LayoutRows is the Tables III–V shape: Size, Function, TAU, Mira,
	// Error.
	LayoutRows ValidationLayout = iota
	// LayoutPanel is one indented Fig. 7 panel: x, TAU, Mira, err. x is
	// the point's label, or the function's display name when the point
	// has no label (a one-point panel over several functions).
	LayoutPanel
	// LayoutAblation is the PBound-vs-Mira shape: n, VM measured, Mira,
	// Mira err, PBound, PBound err.
	LayoutAblation
)

// ValidationFunc is one function a ValidationSection compares.
type ValidationFunc struct {
	// Fn names the function in both the model and the VM.
	Fn string
	// Display labels the function in the table; empty means Fn.
	Display string
	// PerCall reports one invocation: the VM's inclusive count is divided
	// by the function's call count, matching a model evaluated from the
	// function's own parameter bindings.
	PerCall bool
}

// ValidationPoint is one labelled evaluation point: the bindings both
// the model and the VM argument staging read.
type ValidationPoint struct {
	Label Value
	Env   map[string]int64
}

// ValidationSection is the paper's validation experiment as data: one
// workload, evaluated statically and executed on the VM at every point,
// with the relative error of each compared function. Tables III–V,
// Fig. 7 and the ablation are all ValidationSections (see
// internal/experiments). It is Go-only: Args is code, and the VM sizes
// a spec could pick have no step budget on the daemon, so SuiteSpec
// does not carry it.
type ValidationSection struct {
	Name     string
	Caption  string
	Layout   ValidationLayout
	Workload WorkloadRef
	Points   []ValidationPoint
	Funcs    []ValidationFunc
	// Entry is the VM function each point runs.
	Entry string
	// Args stages one point's inputs in the machine's memory and returns
	// Entry's arguments. It is the only per-workload code a validation
	// needs; nil means Entry takes no arguments.
	Args func(m *vm.Machine, point map[string]int64) []vm.Value
}

// Tables implements Section.
func (s ValidationSection) Tables(ctx context.Context, r *Runner) ([]Table, error) {
	rows, err := s.Rows(ctx, r)
	if err != nil {
		return nil, err
	}
	return []Table{s.Table(rows)}, nil
}

// Rows measures the section. The static column is one engine sweep per
// function over the points (KindStatic, plus KindPBound for
// LayoutAblation); the dynamic column is one VM run per point, fanned
// out over the engine's worker bound. Any failure (unknown function, VM
// fault, cancellation) fails the section; once ctx is done no further
// VM run starts and Rows returns ctx.Err().
func (s ValidationSection) Rows(ctx context.Context, r *Runner) ([]ValidationRow, error) {
	if len(s.Points) == 0 || len(s.Funcs) == 0 {
		return nil, fmt.Errorf("report: validation section %q needs points and functions", s.Name)
	}
	a, err := s.Workload.resolve(ctx, r.eng)
	if err != nil {
		return nil, err
	}
	envs := make([]map[string]int64, len(s.Points))
	for i, p := range s.Points {
		envs[i] = p.Env
	}
	nf := len(s.Funcs)
	rows := make([]ValidationRow, len(s.Points)*nf)
	for fi, f := range s.Funcs {
		static, err := fpiSeries(ctx, a, f.Fn, engine.KindStatic, envs)
		if err != nil {
			return nil, err
		}
		var pbound []int64
		if s.Layout == LayoutAblation {
			if pbound, err = fpiSeries(ctx, a, f.Fn, engine.KindPBound, envs); err != nil {
				return nil, err
			}
		}
		display := f.Display
		if display == "" {
			display = f.Fn
		}
		for pi, p := range s.Points {
			row := &rows[pi*nf+fi]
			row.Label, row.Function, row.Static = p.Label, display, static[pi]
			if pbound != nil {
				row.PBound = pbound[pi]
			}
		}
	}
	err = engine.ForEachCtx(ctx, r.eng.Workers(), len(s.Points), func(pi int) error {
		m := a.NewMachine()
		var args []vm.Value
		if s.Args != nil {
			args = s.Args(m, s.Points[pi].Env)
		}
		if _, err := m.Run(s.Entry, args...); err != nil {
			return fmt.Errorf("point %v: %w", s.Points[pi].Env, err)
		}
		for fi, f := range s.Funcs {
			st, ok := m.FuncStatsByName(f.Fn)
			if !ok {
				return fmt.Errorf("vm: no stats for %q", f.Fn)
			}
			fpi := int64(st.FPIInclusive())
			if f.PerCall && st.Calls > 0 {
				fpi /= int64(st.Calls)
			}
			rows[pi*nf+fi].Dynamic = fpi
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// fpiSeries sweeps fn over envs under kind and returns one FP count per
// point: the model's FPI for KindStatic, the flop bound for KindPBound.
func fpiSeries(ctx context.Context, a *engine.Analysis, fn string, kind engine.QueryKind, envs []map[string]int64) ([]int64, error) {
	res, err := a.Sweep(ctx, engine.SweepSpec{Fn: fn, Kind: kind, Points: envs})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res.SweepSeries(func(p *engine.SweepPoint) (int64, bool) {
		switch {
		case p.Metrics != nil:
			return p.Metrics.FPI(), true
		case p.PBound != nil:
			return p.PBound.Flops, true
		}
		return 0, false
	})
}

// Table renders measured rows in the section's layout. Every error
// cell goes through ValidationRow.ErrorPct.
func (s ValidationSection) Table(rows []ValidationRow) Table {
	t := Table{Name: s.Name, Caption: s.Caption, Rows: make([]Row, len(rows))}
	switch s.Layout {
	case LayoutPanel:
		t.Indent = 2
		t.Columns = []Column{
			{Name: "x", Kind: ColString, Width: 24},
			{Name: "TAU", Kind: ColFloat, Prec: 4, Width: 14},
			{Name: "Mira", Kind: ColFloat, Prec: 4, Width: 14},
			{Name: "err", Kind: ColPct, Prec: 3},
		}
		for i, r := range rows {
			x := r.Label
			if x.IsNull() {
				x = Str(r.Function)
			}
			t.Rows[i].Cells = []Value{x, Int(r.Dynamic), Int(r.Static), r.errCell()}
		}
	case LayoutAblation:
		t.Columns = []Column{
			{Name: "n", Kind: ColInt, Width: 10},
			{Name: "VM measured", Kind: ColInt, Width: 14},
			{Name: "Mira", Kind: ColInt, Width: 14},
			{Name: "Mira err", Kind: ColPct, Prec: 2, Width: 12},
			{Name: "PBound", Kind: ColInt, Width: 14},
			{Name: "PBound err", Kind: ColPct, Prec: 2},
		}
		for i, r := range rows {
			pb := ValidationRow{Dynamic: r.Dynamic, Static: r.PBound}
			t.Rows[i].Cells = []Value{
				r.Label, Int(r.Dynamic), Int(r.Static), r.errCell(), Int(r.PBound), pb.errCell(),
			}
		}
	default:
		t.Columns = []Column{
			{Name: "Size", Kind: ColString, Width: 14},
			{Name: "Function", Kind: ColString, Width: 28},
			{Name: "TAU", Kind: ColFloat, Prec: 4, Width: 14},
			{Name: "Mira", Kind: ColFloat, Prec: 4, Width: 14},
			{Name: "Error", Kind: ColPct, Prec: 3},
		}
		for i, r := range rows {
			t.Rows[i].Cells = []Value{r.Label, Str(r.Function), Int(r.Dynamic), Int(r.Static), r.errCell()}
		}
	}
	return t
}
