package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mira/internal/arch"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/pbound"
)

// MaxSweepPoints bounds one sweep's expanded grid (axes × explicit
// points × architectures). 64k points is two orders of magnitude past
// the paper's largest table; bigger studies split into chunks the
// caller schedules.
const MaxSweepPoints = 65536

// ErrSweepTooLarge is the typed error a Sweep returns when the grid
// would expand past MaxSweepPoints (check with errors.Is; serving
// layers map it to 413 and tell the client to split the study).
var ErrSweepTooLarge = errors.New("sweep grid too large")

// sweepChunk is the fan-out granularity: points are evaluated in runs
// of this size per worker-pool slot, so a 10k-point sweep costs ~tens
// of scheduling events, not 10k, while cancellation still lands within
// one chunk.
const sweepChunk = 64

// SweepAxis is one sweep dimension: a parameter name and the values it
// takes. The grid is the cross product of all axes.
type SweepAxis struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

// SweepSpec describes a parameter sweep of one function: evaluate Kind
// at every point of a grid. The grid is either the cross product of
// Axes or the explicit Points list (exactly one must be given), each
// point optionally completed by the fixed Base bindings. For
// architecture-dependent kinds (roofline, fine categories), Archs
// multiplies the grid by one cell per named description.
type SweepSpec struct {
	Fn   string
	Kind QueryKind
	// Axes are crossed to form the grid.
	Axes []SweepAxis
	// Points lists explicit environments instead of a cross product —
	// for grids whose parameters move together (miniFE's n = nx*ny*nz).
	Points []map[string]int64
	// Base binds parameters shared by every point (a point overrides).
	Base map[string]int64
	// Archs names registered architecture descriptions to sweep across
	// for KindRoofline / KindFineCategories; empty means the analysis's
	// own. At most one may be given for arch-independent kinds.
	Archs []string
	// ArchDesc overrides with one in-process description value (takes
	// precedence over Archs), mirroring Query.ArchDesc.
	ArchDesc *arch.Description
}

// SweepPoint is one evaluated grid cell. Err is per-point — an
// overflowing size or a cancelled context fails the cell, never the
// sweep. Exactly one value field is set on success, matching the
// sweep's kind.
type SweepPoint struct {
	Env  map[string]int64 `json:"env"`
	Arch string           `json:"arch,omitempty"`
	Value
	Err error `json:"-"`
}

// SweepResult is a completed sweep: every grid point in expansion order
// (axes vary rightmost-fastest, architectures outermost).
type SweepResult struct {
	Fn     string
	Kind   QueryKind
	Points []SweepPoint
}

// Errs returns the per-point failures, nil when every point succeeded.
func (r *SweepResult) Errs() []error {
	var out []error
	for i := range r.Points {
		if err := r.Points[i].Err; err != nil {
			out = append(out, err)
		}
	}
	return out
}

// Sweep evaluates spec's grid against the analysis. The function's
// model is compiled to closed form once (cached per content hash) and
// each point is then a flat expression evaluation — no tree walk, no
// (function, env) memo churn — from which the kind's value is derived
// exactly as a query's is, fanned out over the worker bound in chunks.
// A point is evaluated through the compiled model's public entry point,
// CompiledModel.Eval (or EvalOps) at its expr.Env, whose workspaces are
// pooled per model; the metrics kinds' values share one slab.
// The error return covers the spec itself (unknown function or kind,
// bad grid, too many points): bad-request material. Everything
// per-point, including cancellation of ctx, lands in SweepPoint.Err;
// points not yet evaluated when ctx dies carry ctx.Err().
func (a *Analysis) Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	if spec.Fn == "" {
		return nil, fmt.Errorf("engine: sweep needs a function")
	}
	if err := spec.Kind.check(); err != nil {
		return nil, err
	}
	envs, err := expandSweepGrid(spec)
	if err != nil {
		return nil, err
	}
	archs, err := a.sweepArchs(spec)
	if err != nil {
		return nil, err
	}
	total := len(envs) * len(archs)
	if total > MaxSweepPoints {
		return nil, fmt.Errorf("engine: sweep expands to %d points (%d envs x %d archs), exceeding the limit of %d: %w",
			total, len(envs), len(archs), MaxSweepPoints, ErrSweepTooLarge)
	}

	// The once-per-sweep work: the symbolic compilation the kind
	// evaluates, or the PBound report.
	base := compiledLeaves{fn: spec.Fn}
	if spec.Kind == KindPBound {
		base.rep, err = a.pboundReport()
	} else {
		base.cm, err = a.Compiled(spec.Fn, spec.Kind == KindStaticExclusive)
	}
	if err != nil {
		return nil, err
	}

	start := time.Now()
	res := &SweepResult{Fn: spec.Fn, Kind: spec.Kind, Points: make([]SweepPoint, total)}
	for ai := range archs {
		for ei := range envs {
			p := &res.Points[ai*len(envs)+ei]
			p.Env = envs[ei]
			p.Arch = archs[ai].name
		}
	}
	var slab []model.Metrics
	if spec.Kind == KindStatic || spec.Kind == KindStaticExclusive {
		slab = make([]model.Metrics, total)
	}
	chunks := (total + sweepChunk - 1) / sweepChunk
	done := ctx.Done()
	_ = ForEachCtx(ctx, a.eng.workers, chunks, func(ci int) error {
		lo, hi := ci*sweepChunk, (ci+1)*sweepChunk
		if hi > total {
			hi = total
		}
		for i := lo; i < hi; i++ {
			select {
			case <-done:
				res.Points[i].Err = ctx.Err()
				continue
			default:
			}
			p := &res.Points[i]
			l := base
			l.env = expr.EnvFromInts(p.Env)
			var dst *model.Metrics
			if slab != nil {
				dst = &slab[i]
			}
			p.Value, p.Err = value(spec.Kind, spec.Fn, archs[i/len(envs)].desc, l, dst)
		}
		return nil // per-point errors never abort the sweep
	})
	// Chunks never scheduled after cancellation left their points
	// untouched: mark them with the context error so every point
	// reports an outcome.
	if ctxErr := ctx.Err(); ctxErr != nil {
		for i := range res.Points {
			p := &res.Points[i]
			if p.Err == nil && p.Metrics == nil && p.Categories == nil && p.Roofline == nil && p.PBound == nil {
				p.Err = ctxErr
			}
		}
	}
	a.eng.met.sweepPoints.Add(int64(total))
	a.eng.met.sweep.Observe(time.Since(start).Seconds())
	return res, nil
}

// sweepArch pairs a wire name with its resolved description.
type sweepArch struct {
	name string
	desc *arch.Description
}

// sweepArchs resolves the architecture cells of a sweep: the one
// in-process description, else every named one, else the analysis's own.
func (a *Analysis) sweepArchs(spec SweepSpec) ([]sweepArch, error) {
	if !spec.Kind.usesArch() && (len(spec.Archs) > 1 || (len(spec.Archs) == 1 && spec.ArchDesc != nil)) {
		return nil, fmt.Errorf("engine: kind %s does not vary by architecture; drop the archs axis", spec.Kind)
	}
	names := spec.Archs
	if spec.ArchDesc != nil || len(names) == 0 {
		names = []string{""}
	}
	out := make([]sweepArch, len(names))
	for i, name := range names {
		d, err := a.resolveArch(spec.ArchDesc, name)
		if err != nil {
			return nil, err
		}
		if spec.ArchDesc != nil {
			name = d.Name
		}
		out[i] = sweepArch{name: name, desc: d}
	}
	return out, nil
}

// expandSweepGrid builds the environment list: the cross product of the
// axes (rightmost axis varying fastest) or the explicit points, each
// completed by the base bindings.
func expandSweepGrid(spec SweepSpec) ([]map[string]int64, error) {
	if len(spec.Axes) > 0 && len(spec.Points) > 0 {
		return nil, fmt.Errorf("engine: sweep takes axes or explicit points, not both")
	}
	if len(spec.Points) > 0 {
		if len(spec.Points) > MaxSweepPoints {
			return nil, fmt.Errorf("engine: %d explicit points exceeds the limit of %d: %w",
				len(spec.Points), MaxSweepPoints, ErrSweepTooLarge)
		}
		out := make([]map[string]int64, len(spec.Points))
		for i, p := range spec.Points {
			out[i] = mergeEnv(spec.Base, p)
		}
		return out, nil
	}
	if len(spec.Axes) == 0 {
		if len(spec.Base) == 0 {
			return nil, fmt.Errorf("engine: sweep needs axes or explicit points")
		}
		// A base with no axes is the degenerate one-point sweep.
		return []map[string]int64{mergeEnv(spec.Base, nil)}, nil
	}
	total := 1
	seen := map[string]bool{}
	for _, ax := range spec.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("engine: sweep axis needs a name")
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("engine: duplicate sweep axis %q", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("engine: sweep axis %q has no values", ax.Name)
		}
		if total > MaxSweepPoints/len(ax.Values) {
			return nil, fmt.Errorf("engine: sweep grid exceeds the limit of %d points: %w", MaxSweepPoints, ErrSweepTooLarge)
		}
		total *= len(ax.Values)
	}
	out := make([]map[string]int64, 0, total)
	idx := make([]int, len(spec.Axes))
	for {
		env := mergeEnv(spec.Base, nil)
		for i, ax := range spec.Axes {
			env[ax.Name] = ax.Values[idx[i]]
		}
		out = append(out, env)
		// Odometer increment, rightmost fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(spec.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

func mergeEnv(base, point map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(base)+len(point)+1)
	for k, v := range base {
		out[k] = v
	}
	for k, v := range point {
		out[k] = v
	}
	return out
}

// compiledLeaves evaluates one sweep point's leaves: the compiled model
// (already specialized to the sweep's exclusivity) or the PBound report,
// with no memo and no tree walk.
type compiledLeaves struct {
	cm  *model.CompiledModel
	rep *pbound.Report
	fn  string
	env expr.Env
}

func (l compiledLeaves) metrics(bool) (model.Metrics, error) { return l.cm.Eval(l.env) }

func (l compiledLeaves) opcodes() (map[ir.Op]int64, error) { return l.cm.EvalOps(l.env) }

func (l compiledLeaves) pbound() (pbound.Counts, error) {
	return safely("pbound evaluation", func() (pbound.Counts, error) {
		return l.rep.EvalCounts(l.fn, l.env)
	})
}

// SweepSeries extracts one int64 series from a sweep's points (FPI,
// flops, instrs, or a named category), in grid order — the shape the
// clustering and what-if consumers feed on. A point that failed
// contributes its error.
func (r *SweepResult) SweepSeries(pick func(*SweepPoint) (int64, bool)) ([]int64, error) {
	out := make([]int64, len(r.Points))
	for i := range r.Points {
		p := &r.Points[i]
		if p.Err != nil {
			return nil, fmt.Errorf("point %s: %w", formatEnv(p.Env), p.Err)
		}
		v, ok := pick(p)
		if !ok {
			return nil, fmt.Errorf("point %s: kind %s carries no such series", formatEnv(p.Env), r.Kind)
		}
		out[i] = v
	}
	return out, nil
}

// FPISeries is the floating-point-instruction series of a metrics-kind
// sweep — Fig. 7's y-axis.
func (r *SweepResult) FPISeries() ([]int64, error) {
	return r.SweepSeries(func(p *SweepPoint) (int64, bool) {
		if p.Metrics == nil {
			return 0, false
		}
		return p.Metrics.FPI(), true
	})
}

func formatEnv(env map[string]int64) string {
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	sort.Strings(names)
	s := "{"
	for i, k := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, env[k])
	}
	return s + "}"
}
