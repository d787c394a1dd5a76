package report

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mira/internal/engine"
	"mira/internal/obs"
)

// MaxSuiteSections bounds one suite's section count — a wire-delivered
// spec cannot fan one request into an unbounded number of sweeps. Each
// section's grid is further bounded by engine.MaxSweepPoints.
const MaxSuiteSections = 16

// Suite declaratively describes a report: named sections, in order,
// each producing one or more tables. The paper's Tables I–V, Fig. 7,
// the prediction, and the ablation are Suites (see
// internal/experiments); wire clients build Suites from a SuiteSpec.
type Suite struct {
	// Name identifies the suite ("table_iii").
	Name string
	// Title is the human title, carried into the Report.
	Title string
	// Sections produce the tables, in declaration order.
	Sections []Section
}

// Section is one suite entry. Implementations: GridSection (declarative
// workload × grid × kind, compiled to an engine sweep), CompareSection
// (one point ranked across architectures), ValidationSection (static
// model against VM measurement: Tables III–V, Fig. 7, the ablation),
// SectionFunc (free-form, multi-table: Tables I and II).
type Section interface {
	// Tables produces the section's tables. An error here is a spec
	// problem (unknown workload, function, or kind; an over-limit
	// grid) and fails the suite; a grid's per-point evaluation failures
	// land in row errors instead (a ValidationSection fails on any).
	Tables(ctx context.Context, r *Runner) ([]Table, error)
}

// Runner executes suites against an injected engine — no package
// globals, no ambient context; concurrent runs against one engine
// share its caches and are safe.
type Runner struct {
	eng *engine.Engine
	met *runnerMetrics
}

// runnerMetrics are the mira_report_* observability series.
type runnerMetrics struct {
	runs    *obs.Counter
	rows    *obs.Counter
	seconds *obs.Summary
}

// NewRunner builds a Runner over eng.
func NewRunner(eng *engine.Engine) *Runner {
	return &Runner{eng: eng}
}

// WithObs registers the runner's mira_report_* series (suite runs, rows
// produced, whole-suite latency) in reg and returns the runner. Call at
// most once per registry.
func (r *Runner) WithObs(reg *obs.Registry) *Runner {
	r.met = &runnerMetrics{
		runs:    reg.Counter("mira_report_runs", "report suites executed"),
		rows:    reg.Counter("mira_report_rows", "report rows produced"),
		seconds: reg.Summary("mira_report_seconds", "whole-suite report latency"),
	}
	return r
}

// Engine returns the injected engine, for free-form sections
// (SectionFunc) that call experiment code directly.
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Analyze resolves a workload reference through the engine's
// content-hash cache.
func (r *Runner) Analyze(ctx context.Context, ref WorkloadRef) (*engine.Analysis, error) {
	return ref.resolve(ctx, r.eng)
}

// Run executes the suite: every section in order, tables appended in
// declaration order. Cancelling ctx aborts at the next section (and,
// inside a grid section, fails remaining points with ctx.Err()).
func (r *Runner) Run(ctx context.Context, s Suite) (*Report, error) {
	if len(s.Sections) == 0 {
		return nil, fmt.Errorf("report: suite %q has no sections", s.Name)
	}
	if len(s.Sections) > MaxSuiteSections {
		return nil, fmt.Errorf("report: suite %q has %d sections, exceeding the limit of %d",
			s.Name, len(s.Sections), MaxSuiteSections)
	}
	start := time.Now()
	rep := &Report{Suite: s.Name, Title: s.Title}
	for i, sec := range s.Sections {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tables, err := sec.Tables(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("report: suite %q section %d: %w", s.Name, i, err)
		}
		rep.Tables = append(rep.Tables, tables...)
	}
	if r.met != nil {
		r.met.runs.Inc()
		r.met.rows.Add(int64(rep.Rows()))
		r.met.seconds.Observe(time.Since(start).Seconds())
	}
	return rep, nil
}

// SectionFunc adapts a function to a free-form, possibly multi-table
// Section.
type SectionFunc func(ctx context.Context, r *Runner) ([]Table, error)

// Tables implements Section.
func (f SectionFunc) Tables(ctx context.Context, r *Runner) ([]Table, error) { return f(ctx, r) }

// GridSection is the declarative section: one workload, one function,
// one query kind, a scenario grid (axes crossed rightmost-fastest, or
// explicit points, over base bindings, times optional architecture
// descriptions). It compiles to one engine.Sweep — the model partially
// evaluated to closed form once, every grid cell a flat evaluation —
// and renders as a table whose rows are the grid in expansion order
// with per-row errors.
type GridSection struct {
	Name     string
	Caption  string
	Workload WorkloadRef
	Fn       string
	Kind     engine.QueryKind
	Axes     []engine.SweepAxis
	Points   []map[string]int64
	Base     map[string]int64
	Archs    []string
}

// Tables implements Section.
func (s GridSection) Tables(ctx context.Context, r *Runner) ([]Table, error) {
	a, err := s.Workload.resolve(ctx, r.eng)
	if err != nil {
		return nil, err
	}
	res, err := a.Sweep(ctx, engine.SweepSpec{
		Fn:     s.Fn,
		Kind:   s.Kind,
		Axes:   s.Axes,
		Points: s.Points,
		Base:   s.Base,
		Archs:  s.Archs,
	})
	if err != nil {
		return nil, err
	}
	name := s.Name
	if name == "" {
		name = s.Fn + "_" + s.Kind.String()
	}
	t := Table{Name: name, Caption: s.Caption}
	params := s.paramColumns(res)
	for _, p := range params {
		t.Columns = append(t.Columns, Column{Name: p, Kind: ColInt})
	}
	hasArch := len(s.Archs) > 0
	if hasArch {
		t.Columns = append(t.Columns, Column{Name: "arch", Kind: ColString})
	}
	values := valueColumns(s.Kind, res)
	t.Columns = append(t.Columns, values...)

	t.Rows = make([]Row, len(res.Points))
	for pi := range res.Points {
		p := &res.Points[pi]
		row := Row{Cells: make([]Value, 0, len(t.Columns))}
		for _, name := range params {
			if v, ok := p.Env[name]; ok {
				row.Cells = append(row.Cells, Int(v))
			} else {
				row.Cells = append(row.Cells, Null())
			}
		}
		if hasArch {
			row.Cells = append(row.Cells, Str(p.Arch))
		}
		if p.Err != nil {
			row.Error = p.Err.Error()
			for range values {
				row.Cells = append(row.Cells, Null())
			}
		} else {
			row.Cells = append(row.Cells, valueCells(s.Kind, values, p)...)
		}
		t.Rows[pi] = row
	}
	return []Table{t}, nil
}

// paramColumns derives the parameter columns: axis names in declaration
// order, then the remaining environment keys sorted — deterministic for
// both grid modes.
func (s GridSection) paramColumns(res *engine.SweepResult) []string {
	var out []string
	seen := map[string]bool{}
	for _, ax := range s.Axes {
		out = append(out, ax.Name)
		seen[ax.Name] = true
	}
	rest := map[string]bool{}
	for pi := range res.Points {
		for k := range res.Points[pi].Env {
			if !seen[k] {
				rest[k] = true
			}
		}
	}
	restNames := make([]string, 0, len(rest))
	for k := range rest {
		restNames = append(restNames, k)
	}
	sort.Strings(restNames)
	return append(out, restNames...)
}

// valueColumns derives the value columns for a sweep kind. Category
// kinds take their column set from the union of the result's category
// names, sorted.
func valueColumns(kind engine.QueryKind, res *engine.SweepResult) []Column {
	switch kind {
	case engine.KindStatic, engine.KindStaticExclusive:
		return []Column{
			{Name: "instrs", Kind: ColInt},
			{Name: "flops", Kind: ColInt},
			{Name: "fpi", Kind: ColInt},
		}
	case engine.KindRoofline:
		return []Column{
			{Name: "instr_ai", Kind: ColFloat, Prec: 4},
			{Name: "byte_ai", Kind: ColFloat, Prec: 4},
			{Name: "ridge_ai", Kind: ColFloat, Prec: 4},
			{Name: "attainable_gflops", Kind: ColFloat, Prec: 4},
			{Name: "memory_bound", Kind: ColString},
		}
	case engine.KindPBound:
		return []Column{
			{Name: "flops", Kind: ColInt},
			{Name: "loads", Kind: ColInt},
			{Name: "stores", Kind: ColInt},
		}
	case engine.KindCategories, engine.KindFineCategories:
		names := map[string]bool{}
		for pi := range res.Points {
			for cat := range res.Points[pi].Categories {
				names[cat] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for cat := range names {
			sorted = append(sorted, cat)
		}
		sort.Strings(sorted)
		out := make([]Column, len(sorted))
		for i, cat := range sorted {
			out[i] = Column{Name: cat, Kind: ColInt}
		}
		return out
	}
	return nil
}

// valueCells renders one successful point's value cells, aligned with
// valueColumns.
func valueCells(kind engine.QueryKind, cols []Column, p *engine.SweepPoint) []Value {
	switch kind {
	case engine.KindStatic, engine.KindStaticExclusive:
		return []Value{Int(p.Metrics.Instrs), Int(p.Metrics.Flops), Int(p.Metrics.FPI())}
	case engine.KindRoofline:
		bound := "compute"
		if p.Roofline.MemoryBound {
			bound = "memory"
		}
		return []Value{
			Float(p.Roofline.InstrAI), Float(p.Roofline.ByteAI),
			Float(p.Roofline.RidgeAI), Float(p.Roofline.AttainableGFlops),
			Str(bound),
		}
	case engine.KindPBound:
		return []Value{Int(p.PBound.Flops), Int(p.PBound.Loads), Int(p.PBound.Stores)}
	case engine.KindCategories, engine.KindFineCategories:
		out := make([]Value, len(cols))
		for i, col := range cols {
			out[i] = Int(p.Categories[col.Name]) // absent category: 0
		}
		return out
	}
	return nil
}

// SuiteSpec is the wire form of a declarative suite: grid sections
// only, JSON-decodable — what POST /report accepts inline and what a
// scenario data file holds.
type SuiteSpec struct {
	Name     string     `json:"name,omitempty"`
	Title    string     `json:"title,omitempty"`
	Sections []GridSpec `json:"sections"`
}

// GridSpec is a GridSection on the wire.
type GridSpec struct {
	Name    string `json:"name,omitempty"`
	Caption string `json:"caption,omitempty"`
	// Workload reference: exactly one of workload (registry name), key
	// (analyzed content key), or source (inline, with optional file).
	Workload string `json:"workload,omitempty"`
	Key      string `json:"key,omitempty"`
	File     string `json:"file,omitempty"`
	Source   string `json:"source,omitempty"`

	Fn string `json:"fn"`
	// Kind defaults to "static".
	Kind   string             `json:"kind,omitempty"`
	Axes   []engine.SweepAxis `json:"axes,omitempty"`
	Points []map[string]int64 `json:"points,omitempty"`
	Base   map[string]int64   `json:"base,omitempty"`
	Archs  []string           `json:"archs,omitempty"`
	// Compare turns the section into a CompareSection: the function is
	// evaluated at the single point given by base (plus at most one
	// explicit point) and ranked across archs — every registry entry
	// when archs is empty. Kind must be absent or "roofline"; axes are
	// rejected.
	Compare bool `json:"compare,omitempty"`
}

// Suite compiles the wire spec into a runnable Suite, validating
// section count and query kinds up front (grid size is validated by the
// engine at run time, before any evaluation).
func (s SuiteSpec) Suite() (Suite, error) {
	name := s.Name
	if name == "" {
		name = "inline"
	}
	out := Suite{Name: name, Title: s.Title}
	if len(s.Sections) == 0 {
		return Suite{}, fmt.Errorf("report: spec has no sections")
	}
	if len(s.Sections) > MaxSuiteSections {
		return Suite{}, fmt.Errorf("report: spec has %d sections, exceeding the limit of %d",
			len(s.Sections), MaxSuiteSections)
	}
	for i, g := range s.Sections {
		if g.Fn == "" {
			return Suite{}, fmt.Errorf("report: section %d: missing fn", i)
		}
		if g.Compare {
			sec, err := g.compareSection()
			if err != nil {
				return Suite{}, fmt.Errorf("report: section %d: %w", i, err)
			}
			out.Sections = append(out.Sections, sec)
			continue
		}
		kindName := g.Kind
		if kindName == "" {
			kindName = engine.KindStatic.String()
		}
		kind, err := engine.ParseKind(kindName)
		if err != nil {
			return Suite{}, fmt.Errorf("report: section %d: %w", i, err)
		}
		out.Sections = append(out.Sections, GridSection{
			Name:     g.Name,
			Caption:  g.Caption,
			Workload: WorkloadRef{Name: g.Workload, Key: g.Key, File: g.File, Source: g.Source},
			Fn:       g.Fn,
			Kind:     kind,
			Axes:     g.Axes,
			Points:   g.Points,
			Base:     g.Base,
			Archs:    g.Archs,
		})
	}
	return out, nil
}

// compareSection compiles a Compare-flagged wire section. A comparison
// is one point across machines, so the grid forms that vary parameters
// are rejected; the point is base, optionally refined by one explicit
// point (miniFE-style grids bind several parameters together).
func (g GridSpec) compareSection() (CompareSection, error) {
	if g.Kind != "" && g.Kind != engine.KindRoofline.String() {
		return CompareSection{}, fmt.Errorf("compare sections rank rooflines; kind %q is not allowed", g.Kind)
	}
	if len(g.Axes) > 0 {
		return CompareSection{}, fmt.Errorf("compare sections take a single point, not axes")
	}
	if len(g.Points) > 1 {
		return CompareSection{}, fmt.Errorf("compare sections take a single point, got %d", len(g.Points))
	}
	env := make(map[string]int64, len(g.Base)+1)
	for k, v := range g.Base {
		env[k] = v
	}
	if len(g.Points) == 1 {
		for k, v := range g.Points[0] {
			env[k] = v
		}
	}
	if len(env) == 0 {
		return CompareSection{}, fmt.Errorf("compare sections need an evaluation point (base or one explicit point)")
	}
	return CompareSection{
		Name:     g.Name,
		Caption:  g.Caption,
		Workload: WorkloadRef{Name: g.Workload, Key: g.Key, File: g.File, Source: g.Source},
		Fn:       g.Fn,
		Env:      env,
		Archs:    g.Archs,
	}, nil
}
