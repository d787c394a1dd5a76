// Package mira is a framework for static performance analysis, a Go
// reproduction of "Mira: A Framework for Static Performance Analysis"
// (Meng & Norris, IEEE CLUSTER 2017, arXiv:1705.07575).
//
// Mira predicts an application's per-function instruction-category counts
// — down to statement granularity and parameterized by problem size —
// without running it on the target machine. It does so by combining two
// views of the program (paper Fig. 1):
//
//   - the source AST, which preserves loop SCoPs, branch conditions,
//     variable names, and user annotations, and
//   - the compiled binary, disassembled from an object file, which
//     reflects what the optimizer actually emitted,
//
// bridged through a DWARF-style line table and multiplied through a
// polyhedral model of every loop nest and branch constraint.
//
// # Quick start
//
//	res, err := mira.Analyze("kernel.c", src, mira.Options{})
//	if err != nil { ... }
//	env := mira.IntArgs(map[string]int64{"n": 1 << 20})
//	out := res.Run(ctx, []mira.Query{{Fn: "kernel", Env: env, Kind: mira.KindStatic}})
//	if out[0].Err != nil { ... }
//	fmt.Println(out[0].Metrics.FPI()) // predicted floating-point instructions
//
// [Result.Run] is the one query entry: a batch of (function, env, kind)
// cells — static metrics, Table II or fine categories, roofline, PBound —
// each derived from memoized (function, env) leaf evaluations, with
// per-query errors.
//
// The same Result can replay the binary on the built-in virtual machine —
// the reproduction's stand-in for TAU/PAPI measurements — to validate
// predictions:
//
//	m := res.Machine()
//	m.Run("kernel", vm.Int(1<<20))
//
// Everything the paper's evaluation section reports (Tables I–V, Figs.
// 6–7, the arithmetic-intensity prediction) regenerates from
// internal/experiments via `go test -bench` or cmd/mira-bench.
package mira

import (
	"context"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/model"
	"mira/internal/vm"
)

// Options configures analysis.
type Options struct {
	// Unoptimized disables compiler optimizations (constant folding,
	// strength reduction, LICM); used by the PBound ablation.
	Unoptimized bool
	// Lenient downgrades unanalyzable branches to always-taken warnings
	// instead of errors.
	Lenient bool
	// Arch selects the architecture description: a registered name
	// ("arya", "skylake", ...; empty means "generic") or the path of a
	// JSON description file.
	Arch string
}

// Result is an analyzed program: the parametric model plus the compiled
// binary it was derived from. Every query kind ([Result.Run]) is derived
// from memoized (function, env) leaf evaluations — the metrics and the
// per-opcode counts — so repeating a query costs one map lookup plus the
// derivation; Results from one Engine share those memos across callers.
type Result struct {
	a *engine.Analysis
}

// Metrics is an evaluated instruction-count vector.
type Metrics = model.Metrics

// Env binds model parameters for evaluation.
type Env = expr.Env

// Analyze runs the full static pipeline on MiniC source text.
func Analyze(name, source string, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), name, source, opts)
}

// AnalyzeContext is Analyze honoring cancellation: the pipeline aborts
// at the next stage boundary once ctx is done, returning ctx.Err(). It
// runs through a private one-shot [Engine].
func AnalyzeContext(ctx context.Context, name, source string, opts Options) (*Result, error) {
	e, err := NewEngine(0, opts)
	if err != nil {
		return nil, err
	}
	return e.AnalyzeCtx(ctx, name, source)
}

// IntArgs builds an evaluation environment from integer parameter values.
func IntArgs(m map[string]int64) Env { return expr.EnvFromInts(m) }

// PythonModel emits the generated model as Python source, the artifact
// style shown in the paper's Fig. 5.
func (r *Result) PythonModel() string { return r.a.PythonModel() }

// Machine returns a fresh virtual machine over the compiled binary, for
// dynamic validation runs (the reproduction's TAU/PAPI substitute).
func (r *Result) Machine() *vm.Machine { return r.a.NewMachine() }

// Disassembly returns an objdump-style listing of fn.
func (r *Result) Disassembly(fn string) (string, error) { return r.a.Disassembly(fn) }

// SourceDot renders the source AST as Graphviz dot (paper Fig. 2).
func (r *Result) SourceDot() string { return r.a.SourceDot() }

// BinaryDot renders fn's binary AST as Graphviz dot (paper Fig. 3).
func (r *Result) BinaryDot(fn string) (string, error) { return r.a.BinaryDot(fn) }

// Warnings returns analysis warnings (lenient-mode branch downgrades).
func (r *Result) Warnings() []string { return r.a.Warnings }

// Pipeline exposes the underlying pipeline for advanced use (experiments,
// benches).
func (r *Result) Pipeline() *core.Pipeline { return r.a.Pipeline }

// Delta reports which functions the incremental analysis reused from the
// function memo versus recompiled, in link order. A standalone Analyze
// compiles every function; Engine results served from the live
// content-hash cache (where nothing ran at all) have no delta.
type Delta = core.Delta

// Delta returns the Result's incremental-analysis delta, if any.
func (r *Result) Delta() *Delta { return r.a.Delta() }

// ---------------------------------------------------------------------------
// Batch analysis service

// Engine is a concurrent, cache-backed analysis service: a worker pool
// with bounded parallelism, a content-hash pipeline cache (identical
// source text compiles at most once, even under concurrent requests),
// and memoized model evaluation on every Result it returns.
type Engine struct {
	e *engine.Engine
}

// NewEngine builds an analysis service. workers bounds concurrent
// pipeline analyses (0 = GOMAXPROCS); opts applies to every job.
func NewEngine(workers int, opts Options) (*Engine, error) {
	a, err := arch.Resolve(opts.Arch)
	if err != nil {
		return nil, err
	}
	return &Engine{e: engine.New(engine.Options{
		Workers: workers,
		Core: core.Options{
			DisableOpt: opts.Unoptimized,
			Lenient:    opts.Lenient,
			Arch:       a,
		},
	})}, nil
}

// Analyze runs the pipeline on one source, served from the content-hash
// cache when the same text was already analyzed.
func (e *Engine) Analyze(name, source string) (*Result, error) {
	return e.AnalyzeCtx(context.Background(), name, source)
}

// AnalyzeCtx is Analyze honoring cancellation at every wait point: the
// singleflight wait on a duplicate in-flight compile, the worker-pool
// queue, and the pipeline's stage boundaries.
func (e *Engine) AnalyzeCtx(ctx context.Context, name, source string) (*Result, error) {
	a, err := e.e.AnalyzeCtx(ctx, name, source)
	if err != nil {
		return nil, err
	}
	return &Result{a: a}, nil
}

// BatchJob names one source text for batch analysis.
type BatchJob struct {
	Name   string
	Source string
}

// BatchResult is one batch outcome; exactly one of Result/Err is set.
type BatchResult struct {
	Job    BatchJob
	Result *Result
	Err    error
}

// AnalyzeAll analyzes every job concurrently (bounded by the engine's
// worker count) and returns results in job order. Errors are collected
// per item rather than aborting the batch.
func (e *Engine) AnalyzeAll(jobs []BatchJob) []BatchResult {
	return e.AnalyzeAllCtx(context.Background(), jobs)
}

// AnalyzeAllCtx is AnalyzeAll honoring cancellation: once ctx is done,
// every not-yet-analyzed job completes immediately with a per-item
// ctx.Err().
func (e *Engine) AnalyzeAllCtx(ctx context.Context, jobs []BatchJob) []BatchResult {
	ejobs := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		ejobs[i] = engine.Job{Name: j.Name, Source: j.Source}
	}
	out := make([]BatchResult, len(jobs))
	for i, r := range e.e.AnalyzeAll(ctx, ejobs) {
		out[i] = BatchResult{Job: jobs[i], Err: r.Err}
		if r.Err == nil {
			out[i].Result = &Result{a: r.Analysis}
		}
	}
	return out
}

// CacheStats reports the engine's pipeline-cache hit/miss counters.
func (e *Engine) CacheStats() (hits, misses int64) { return e.e.Stats() }
