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

// QueryResult is one evaluated cell. Err is per-query: a failed cell
// never aborts the rest of its batch. Exactly one of the value fields is
// set on success, matching Query.Kind.
type QueryResult struct {
	Query      Query
	Metrics    *model.Metrics     // KindStatic, KindStaticExclusive
	Categories map[string]int64   // KindCategories, KindFineCategories
	Roofline   *roofline.Analysis // KindRoofline
	PBound     *pbound.Counts     // KindPBound
	Err        error
}

// Run evaluates an entire query matrix in one pass with per-query
// errors. Every cell shares the analysis's (function, env) memo, so a
// matrix that sweeps kinds over few evaluation points costs few model
// walks. Cancelling ctx makes the remaining cells return ctx.Err()
// immediately; cells already evaluated keep their results.
func (a *Analysis) Run(ctx context.Context, queries []Query) []QueryResult {
	out := make([]QueryResult, len(queries))
	for i, q := range queries {
		out[i] = a.RunOne(ctx, q)
	}
	return out
}

// RunOne evaluates a single query cell, honoring ctx. It is the one
// query entry: every kind is served through the analysis's memo.
func (a *Analysis) RunOne(ctx context.Context, q Query) QueryResult {
	r := QueryResult{Query: q}
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	var err error
	switch q.Kind {
	case KindStatic, KindStaticExclusive:
		var met model.Metrics
		met, err = a.metrics(q.Fn, q.Env, q.Kind == KindStaticExclusive)
		r.Metrics = &met
	case KindCategories:
		var ops map[ir.Op]int64
		if ops, err = a.opcodes(q.Fn, q.Env); err == nil {
			r.Categories = core.BucketTableII(ops)
		}
	case KindFineCategories:
		var d *arch.Description
		var key string
		if d, key, err = a.queryArch(q); err == nil {
			r.Categories, err = a.fineCats(q.Fn, q.Env, d, key)
		}
	case KindRoofline:
		var d *arch.Description
		var key string
		if d, key, err = a.queryArch(q); err == nil {
			r.Roofline, err = a.rooflineFor(q.Fn, q.Env, d, key)
		}
	case KindPBound:
		var c pbound.Counts
		c, err = a.pboundCounts(q.Fn, q.Env)
		r.PBound = &c
	default:
		err = fmt.Errorf("engine: unknown query kind %d", q.Kind)
	}
	if err != nil {
		return QueryResult{Query: q, Err: err}
	}
	return r
}

// queryArch resolves the query's architecture description and its
// content key: the in-process override first, then the registry-resolved
// name, then the analysis's own. Registry and analysis keys are
// precomputed; only ad-hoc ArchDesc overrides hash here.
func (a *Analysis) queryArch(q Query) (*arch.Description, string, error) {
	if q.ArchDesc != nil {
		return q.ArchDesc, q.ArchDesc.ContentKey(), nil
	}
	if q.Arch == "" {
		return a.Arch, a.archKey, nil
	}
	e, err := a.registry().LookupEntry(q.Arch)
	if err != nil {
		return nil, "", err
	}
	return e.Desc, e.Key, nil
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
