package mira

import (
	"context"

	"mira/internal/engine"
	"mira/internal/pbound"
	"mira/internal/roofline"
)

// This file is the query surface: one batched, cancellable request shape
// spanning every metric kind the paper's evaluation reports. A [Query]
// names a (function, env, kind) cell; [Result.Run] evaluates a whole
// matrix of them in one pass, deriving every kind from shared (function,
// env) leaf memos, with per-query errors; [Engine.RunAll] does the same
// across many programs at once through the engine's worker pool and
// content-hash cache. A single evaluation is a one-cell Run.

// QueryKind selects what a Query evaluates.
type QueryKind = engine.QueryKind

// The query kinds. KindRoofline and KindPBound cover the Sec. IV-D2
// roofline assessment and the PBound source-only baseline.
const (
	// KindStatic evaluates fn's inclusive static metrics (Metrics).
	KindStatic = engine.KindStatic
	// KindStaticExclusive evaluates body-only metrics (Metrics).
	KindStaticExclusive = engine.KindStaticExclusive
	// KindCategories buckets counts into the paper's Table II rows
	// (Categories).
	KindCategories = engine.KindCategories
	// KindFineCategories buckets counts into the architecture
	// description's fine-grained categories (Categories).
	KindFineCategories = engine.KindFineCategories
	// KindRoofline computes arithmetic intensity and the roofline
	// attainable-performance bound.
	KindRoofline = engine.KindRoofline
	// KindPBound evaluates the PBound source-only FP/load/store bounds.
	KindPBound = engine.KindPBound
)

// ParseQueryKind maps a wire name ("static", "static_exclusive",
// "categories", "fine_categories", "roofline", "pbound") to its kind.
func ParseQueryKind(s string) (QueryKind, error) { return engine.ParseKind(s) }

// Query is one cell of a query matrix: evaluate Kind for function Fn
// under Env. The optional Arch field names an architecture description
// overriding the analysis's own for fine-category and roofline queries.
type Query = engine.Query

// QueryResult is one evaluated cell with a per-query error.
type QueryResult = engine.QueryResult

// Roofline is a roofline assessment: instruction-based and byte-based
// arithmetic intensity, the machine's ridge point, and the attainable
// performance bound (paper Sec. IV-D2).
type Roofline = roofline.Analysis

// PBoundCounts is an evaluated PBound source-only estimate: upper bounds
// on FP operations, loads, and stores (the paper's Related Work
// baseline).
type PBoundCounts = pbound.Counts

// Run evaluates an entire query matrix in one pass: every cell derives
// from the Result's (function, env) leaf memos, errors are per-query,
// and a cancelled ctx makes the remaining cells return ctx.Err()
// immediately.
func (r *Result) Run(ctx context.Context, queries []Query) []QueryResult {
	return r.a.Run(ctx, queries)
}

// QueryJob is one cell of an engine-level query matrix: a program
// (inline Source, or the Key of an already-analyzed one) plus the query
// to evaluate against it.
type QueryJob = engine.QueryJob

// QueryJobResult pairs a job with its evaluated cell.
type QueryJobResult = engine.QueryJobResult

// RunAll evaluates a query matrix across programs: jobs fan out over the
// engine's worker pool, jobs naming the same source share one compile,
// jobs hitting the same (function, env) point share the evaluation memo,
// and every failure — analysis, evaluation, or cancellation — is
// per-job.
func (e *Engine) RunAll(ctx context.Context, jobs []QueryJob) []QueryJobResult {
	return e.e.RunAll(ctx, jobs)
}

// Key returns the engine's content-hash key for source — the handle a
// QueryJob (or a mira-serve client) can use to reference an analyzed
// program without resending its text.
func (e *Engine) Key(source string) string { return e.e.Key(source) }
