package engine

import (
	"context"
	"fmt"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/pbound"
	"mira/internal/roofline"
)

// QueryKind selects what a Query evaluates. The enum spans every metric
// shape the paper's evaluation section reports: the static model
// (inclusive and body-only), the Table II aggregate categories, the
// architecture description's fine 64-way categories, the Sec. IV-D2
// roofline assessment, and the PBound source-only baseline.
type QueryKind int

const (
	// KindStatic evaluates fn's inclusive static metrics.
	KindStatic QueryKind = iota
	// KindStaticExclusive evaluates fn's body-only metrics.
	KindStaticExclusive
	// KindCategories buckets counts into the paper's Table II rows.
	KindCategories
	// KindFineCategories buckets counts into the architecture
	// description's fine-grained (64-way) categories.
	KindFineCategories
	// KindRoofline computes the roofline assessment (arithmetic
	// intensity, ridge point, attainable GFLOP/s).
	KindRoofline
	// KindPBound evaluates the source-only PBound baseline bounds.
	KindPBound

	numQueryKinds
)

var kindNames = [numQueryKinds]string{
	KindStatic:          "static",
	KindStaticExclusive: "static_exclusive",
	KindCategories:      "categories",
	KindFineCategories:  "fine_categories",
	KindRoofline:        "roofline",
	KindPBound:          "pbound",
}

// String returns the kind's wire name.
func (k QueryKind) String() string {
	if k < 0 || k >= numQueryKinds {
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
	return kindNames[k]
}

// check reports a kind outside the enum.
func (k QueryKind) check() error {
	if k < 0 || k >= numQueryKinds {
		return fmt.Errorf("engine: unknown query kind %d", k)
	}
	return nil
}

// usesArch reports whether the kind depends on the architecture
// description.
func (k QueryKind) usesArch() bool { return k == KindRoofline || k == KindFineCategories }

// ParseKind maps a wire name back to its QueryKind.
func ParseKind(s string) (QueryKind, error) {
	for k, name := range kindNames {
		if s == name {
			return QueryKind(k), nil
		}
	}
	return 0, fmt.Errorf("engine: unknown query kind %q (kinds: %s, %s, %s, %s, %s, %s)",
		s, KindStatic, KindStaticExclusive, KindCategories, KindFineCategories, KindRoofline, KindPBound)
}

// Query is one cell of a query matrix: evaluate Kind for function Fn
// under Env. The zero Kind is KindStatic.
type Query struct {
	Fn   string
	Env  expr.Env
	Kind QueryKind
	// Arch optionally names a registered architecture description (an
	// embedded profile or one loaded into the registry) overriding the
	// analysis's own for KindFineCategories and KindRoofline; empty
	// means the analysis's. This is the wire-friendly form /query
	// exposes.
	Arch string
	// ArchDesc overrides with an in-process description value (file-
	// loaded or modified ones Lookup cannot name). Takes precedence
	// over Arch.
	ArchDesc *arch.Description
}

// Value is one evaluated cell's payload. Exactly one field is set,
// matching the query kind.
type Value struct {
	Metrics    *model.Metrics     `json:"metrics,omitempty"`    // KindStatic, KindStaticExclusive
	Categories map[string]int64   `json:"categories,omitempty"` // KindCategories, KindFineCategories
	Roofline   *roofline.Analysis `json:"roofline,omitempty"`   // KindRoofline
	PBound     *pbound.Counts     `json:"pbound,omitempty"`     // KindPBound
}

// QueryResult is one evaluated cell. Err is per-query: a failed cell
// never aborts the rest of its batch, and leaves Value empty.
type QueryResult struct {
	Query Query
	Value
	Err error
}

// Run evaluates an entire query matrix in one pass with per-query
// errors. Every cell shares the analysis's (function, env) leaf memos,
// so a matrix that sweeps kinds over few evaluation points costs few
// model walks. Cancelling ctx makes the remaining cells return ctx.Err()
// immediately; cells already evaluated keep their results.
func (a *Analysis) Run(ctx context.Context, queries []Query) []QueryResult {
	out := make([]QueryResult, len(queries))
	for i, q := range queries {
		out[i] = a.RunOne(ctx, q)
	}
	return out
}

// RunOne evaluates a single query cell, honoring ctx. It is the one
// query entry: every kind is derived from the analysis's leaf memos.
func (a *Analysis) RunOne(ctx context.Context, q Query) QueryResult {
	v, err := a.query(ctx, q)
	if err != nil {
		return QueryResult{Query: q, Err: err}
	}
	return QueryResult{Query: q, Value: v}
}

// query resolves q's architecture (for the kinds that use one) and
// function cell, then derives its value from the cell's leaf memos.
func (a *Analysis) query(ctx context.Context, q Query) (Value, error) {
	if err := ctx.Err(); err != nil {
		return Value{}, err
	}
	if err := q.Kind.check(); err != nil {
		return Value{}, err
	}
	var d *arch.Description
	if q.Kind.usesArch() {
		var err error
		if d, err = a.resolveArch(q.ArchDesc, q.Arch); err != nil {
			return Value{}, err
		}
	}
	fe, err := a.cell(q.Fn)
	if err != nil {
		return Value{}, err
	}
	return value(q.Kind, q.Fn, d, memoLeaves{a: a, fe: fe, fn: q.Fn, env: q.Env}, nil)
}

// leaves evaluates the leaf counts of one (function, env) point that
// every query kind derives from: the memoized tree walk for queries
// (memoLeaves), the compiled model for sweeps (compiledLeaves).
type leaves interface {
	metrics(exclusive bool) (model.Metrics, error)
	opcodes() (map[ir.Op]int64, error)
	pbound() (pbound.Counts, error)
}

// value derives kind's answer for fn from l, against d for the
// architecture-dependent kinds. It is the one place that knows what a
// kind computes. A metrics kind's answer is stored in dst, or in a new
// Metrics when dst is nil. (Generic rather than interface-typed so the
// per-point leaves value is not boxed.)
func value[L leaves](kind QueryKind, fn string, d *arch.Description, l L, dst *model.Metrics) (Value, error) {
	switch kind {
	case KindStatic, KindStaticExclusive:
		met, err := l.metrics(kind == KindStaticExclusive)
		if err != nil {
			return Value{}, err
		}
		if dst == nil {
			dst = new(model.Metrics)
		}
		*dst = met
		return Value{Metrics: dst}, nil
	case KindCategories, KindFineCategories:
		ops, err := l.opcodes()
		if err != nil {
			return Value{}, err
		}
		if kind == KindFineCategories {
			return Value{Categories: core.BucketFine(d, ops)}, nil
		}
		return Value{Categories: core.BucketTableII(ops)}, nil
	case KindRoofline:
		met, err := l.metrics(false)
		if err != nil {
			return Value{}, err
		}
		roof, err := roofline.Analyze(fn, met, d)
		if err != nil {
			return Value{}, err
		}
		return Value{Roofline: roof}, nil
	case KindPBound:
		c, err := l.pbound()
		if err != nil {
			return Value{}, err
		}
		return Value{PBound: &c}, nil
	}
	return Value{}, kind.check()
}

// resolveArch resolves an architecture override: the in-process
// description first, then the registry-resolved name, then the
// analysis's own.
func (a *Analysis) resolveArch(desc *arch.Description, name string) (*arch.Description, error) {
	switch {
	case desc != nil:
		return desc, nil
	case name == "":
		return a.Arch, nil
	}
	return a.eng.registry.Lookup(name)
}

// QueryJob is one cell of an engine-level query matrix: a program
// (inline Source, or the Key of an already-analyzed one) plus the query
// to evaluate against it.
type QueryJob struct {
	// Name labels the program for diagnostics; used with Source.
	Name string
	// Source is the program text; analyzed through the engine's
	// content-hash cache, so N jobs over one program compile it once.
	Source string
	// Key references an already-analyzed program instead of Source.
	Key   string
	Query Query
}

// QueryJobResult pairs a job with its evaluated cell.
type QueryJobResult struct {
	Job QueryJob
	QueryResult
}

// RunAll evaluates an engine-level query matrix: every job fans out over
// the worker pool, jobs naming the same source share one compile via the
// content-hash cache, and jobs hitting the same (function, env) point
// share the analysis memo. Errors — analysis failures, bad cells,
// cancellation — are per-job. After ctx is cancelled every remaining job
// completes immediately with ctx.Err().
func (e *Engine) RunAll(ctx context.Context, jobs []QueryJob) []QueryJobResult {
	out := make([]QueryJobResult, len(jobs))
	done := make([]bool, len(jobs))
	// The worker fn never fails (per-item errors land in out[i]);
	// cancellation is detected via done[] below, not the return value.
	_ = ForEachCtx(ctx, e.workers, len(jobs), func(i int) error {
		done[i] = true
		j := jobs[i]
		out[i].Job = j
		out[i].Query = j.Query
		a, err := e.resolveJob(ctx, j)
		if err != nil {
			out[i].Err = err
			return nil
		}
		out[i].QueryResult = a.RunOne(ctx, j.Query)
		return nil
	})
	// Cancellation stops the sweep from scheduling; jobs it never
	// reached still report the cancellation per item.
	for i := range out {
		if !done[i] {
			out[i] = QueryJobResult{Job: jobs[i], QueryResult: QueryResult{Query: jobs[i].Query, Err: ctx.Err()}}
		}
	}
	return out
}

// resolveJob produces the analysis a job queries against.
func (e *Engine) resolveJob(ctx context.Context, j QueryJob) (*Analysis, error) {
	switch {
	case j.Source != "":
		return e.AnalyzeCtx(ctx, j.Name, j.Source)
	case j.Key != "":
		if a, ok := e.Lookup(j.Key); ok {
			return a, nil
		}
		return nil, fmt.Errorf("engine: unknown analysis key %q", j.Key)
	default:
		return nil, fmt.Errorf("engine: query job needs Source or Key")
	}
}
