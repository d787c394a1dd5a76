// Package engine turns the one-shot core.Analyze pipeline into a
// concurrent, cache-backed analysis service. It provides four layers:
//
//   - a worker-pool batch API (AnalyzeAll) that analyzes many named
//     sources with bounded parallelism and per-item error collection,
//   - a content-hash pipeline cache with singleflight-style dedup, so
//     identical source text is parsed/compiled/decoded at most once no
//     matter how many callers race for it,
//   - a function-granular memo beneath it: every compiled unit and
//     generated model is kept under its function-content key
//     (core.FuncKeys), so analyzing an *edited* source recompiles only
//     the functions whose key changed and reuses everything else,
//   - a pluggable persistent CacheStore beneath the function memo:
//     compiled per-function object fragments survive the process, and a
//     warm restart decodes each stored fragment instead of recompiling
//     that function (see cachestore for the content-addressed on-disk
//     implementation), and
//   - a memoized evaluation layer (Analysis): the leaf evaluations every
//     query kind derives from — metrics, per-opcode counts, PBound counts
//     — are memoized under (function-content key, env), so a repeated
//     query costs one map lookup plus its derivation (category
//     bucketing, the roofline against the query's architecture), across
//     source versions, since the memo cells live under function keys.
//     Sweeps derive the same kinds from the compiled model instead.
//
// Every layer reports into an obs.Registry — cache hits and misses,
// per-stage latency, in-flight analyses, memo sizes — which mira-serve
// exposes at /metrics in OpenMetrics text format. Panics reachable
// through hostile inputs are converted to errors at this boundary so a
// resident server survives them.
//
// The underlying pipeline is immutable after construction and the model
// evaluator is pure, so one cached Analysis can safely serve any number
// of concurrent readers.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/obs"
)

// CacheFormatVersion is the cache-key format version shared by every
// caching layer (see core.CacheFormatVersion): it is mixed into the
// engine's content-hash keys and into every function-content key, and
// the cachestore derives its on-disk magic from it. Entries written
// under another version read as clean misses everywhere.
const CacheFormatVersion = core.CacheFormatVersion

// Options configures an Engine.
type Options struct {
	// Workers bounds the number of pipeline analyses running at once.
	// Zero or negative means GOMAXPROCS.
	Workers int
	// Core is passed through to every core.Analyze call.
	Core core.Options
	// Registry resolves architecture names in queries, sweeps, and
	// reports. Nil means a fresh arch.NewRegistry() of the embedded
	// profiles; serving layers that load custom descriptions (-arch-dir)
	// inject the loaded registry here. The registry must not be mutated
	// after the engine is built.
	Registry *arch.Registry
	// Store, when non-nil, persists compiled per-function units across
	// engines (and, with a disk-backed store, across process restarts):
	// a function that misses the live function memo is restored from the
	// store instead of recompiled.
	Store CacheStore
	// MaxResident bounds the number of entries (successes and cached
	// failures) the live cache keeps; zero means unlimited. When the
	// bound is exceeded, completed entries are evicted arbitrarily —
	// callers holding an evicted Analysis keep a fully usable (immutable)
	// object, and re-analyzing the same source reuses the function memo
	// or restores from the Store. A network-facing service must set
	// this: untrusted clients can otherwise grow the cache without
	// limit.
	MaxResident int
	// MaxResidentFuncs bounds the number of per-function memo cells (the
	// compiled units, generated models, and evaluation memos kept under
	// function-content keys); zero means unlimited. Like MaxResident,
	// victims are arbitrary and eviction is safe: an evicted function's
	// next appearance recompiles (or restores from the Store), and any
	// analysis still holding the cell keeps a fully usable object.
	MaxResidentFuncs int
	// Obs receives the engine's metrics (cache hit/miss counters,
	// per-stage latency, in-flight and memo-size gauges). Nil means a
	// private registry, reachable via Engine.Obs. A registry can host at
	// most one engine: a second New with the same registry panics on the
	// duplicate metric names.
	Obs *obs.Registry
}

// Engine is a concurrent analysis service over the core pipeline.
type Engine struct {
	opts    Options
	workers int
	sem     chan struct{} // bounds concurrent core.Analyze work
	store   CacheStore
	reg     *obs.Registry
	met     *metricsSet

	// registry resolves architecture names; archKey is the content key
	// of the engine's own architecture (Options.Core.Arch), precomputed
	// once — it is mixed into every content-hash cache key.
	registry *arch.Registry
	archKey  string

	mu sync.Mutex
	// content hash -> in-flight or completed
	//lint:guarded-by mu
	calls map[string]*call

	// funcs is the function-granular memo: one cell per function-content
	// key, holding the compiled unit + model artifact and the evaluation
	// memos, shared by every source version containing that function.
	funcMu sync.Mutex
	funcs  map[string]*funcEntry //lint:guarded-by funcMu

	hits   atomic.Int64
	misses atomic.Int64
}

// call is one singleflight slot: the first requester of a content hash
// does the work; everyone else blocks on done and shares the outcome.
type call struct {
	done chan struct{}
	name string // the first requester's program name
	a    *Analysis
	err  error
}

// New builds an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	registry := opts.Registry
	if registry == nil {
		registry = arch.NewRegistry()
	}
	e := &Engine{
		opts:     opts,
		workers:  w,
		sem:      make(chan struct{}, w),
		store:    opts.Store,
		reg:      reg,
		met:      newMetricsSet(reg),
		registry: registry,
		archKey:  arch.KeyOf(opts.Core.Arch),
		calls:    map[string]*call{},
		funcs:    map[string]*funcEntry{},
	}
	registerEngineGauges(reg, e)
	return e
}

// Workers reports the engine's parallelism bound.
func (e *Engine) Workers() int { return e.workers }

// Obs returns the registry the engine's metrics live in (the one passed
// via Options.Obs, or the engine's private registry).
func (e *Engine) Obs() *obs.Registry { return e.reg }

// Registry returns the architecture registry queries resolve names
// against (the one passed via Options.Registry, or the builtin one).
func (e *Engine) Registry() *arch.Registry { return e.registry }

// cacheKey fingerprints the analysis inputs that determine the pipeline:
// the cache format version, the source text, and every core option that
// changes compilation. The architecture enters as its *content key*, not
// its name, so two descriptions differing in a single parameter can
// never share an entry — locally, on disk, or through a peer tier. The
// program name is deliberately excluded — identical text under two names
// is the same program and shares one compile. The version term means a
// format bump turns every key written under the old scheme into a clean
// miss.
func (e *Engine) cacheKey(source string) string {
	h := sha256.New()
	// The hash only reads its input, so the source is hashed where it
	// lies instead of being copied into a byte slice of its own size.
	h.Write(unsafe.Slice(unsafe.StringData(source), len(source)))
	fmt.Fprintf(h, "\x00v=%d opt=%t lenient=%t arch=%s",
		CacheFormatVersion, e.opts.Core.DisableOpt, e.opts.Core.Lenient, e.archKey)
	return hex.EncodeToString(h.Sum(nil))
}

// funcCell returns (creating if needed) the engine's memo cell for one
// function-content key. A freshly created cell may immediately become an
// eviction victim under MaxResidentFuncs; the returned pointer stays
// valid and usable either way — residency only affects future reuse.
func (e *Engine) funcCell(key string) *funcEntry {
	e.funcMu.Lock()
	defer e.funcMu.Unlock()
	fe := e.funcs[key]
	if fe == nil {
		fe = newFuncEntry()
		e.funcs[key] = fe
		e.evictFuncsLocked()
	}
	return fe
}

// lookupFuncArtifact serves core.AnalyzeIncrementalContext's per-function
// cache probe: the live memo first, then the persistent store (decoding
// the stored unit; a corrupt fragment, or a unit compiled from another
// function than qname, counts as a store error and degrades to a
// recompile of that one function).
func (e *Engine) lookupFuncArtifact(key, qname string) (*core.FuncArtifact, bool) {
	e.funcMu.Lock()
	fe := e.funcs[key]
	e.funcMu.Unlock()
	if fe != nil {
		if art := fe.artifact(); art != nil && art.Unit != nil {
			return art, true
		}
	}
	if e.store == nil {
		return nil, false
	}
	ent, ok := e.store.LoadFunc(key)
	if !ok || ent == nil {
		e.met.storeMisses.Inc()
		return nil, false
	}
	u, err := core.DecodeUnit(ent.Unit)
	if err != nil || u.Name != qname {
		e.met.storeErrors.Inc()
		return nil, false
	}
	e.met.storeHits.Inc()
	return &core.FuncArtifact{Key: key, Name: ent.Name, Unit: u}, true
}

// adoptArtifacts installs an incremental build's complete artifact set
// into the function memo (model-carrying artifacts never downgrade) and
// persists the newly compiled units to the store.
func (e *Engine) adoptArtifacts(res *core.IncrementalResult) {
	compiled := make(map[string]bool, len(res.Delta.Compiled))
	for _, q := range res.Delta.Compiled {
		compiled[q] = true
	}
	e.funcMu.Lock()
	for _, art := range res.Artifacts {
		fe := e.funcs[art.Key]
		if fe == nil {
			fe = newFuncEntry()
			e.funcs[art.Key] = fe
		}
		fe.adopt(art)
	}
	e.evictFuncsLocked()
	e.funcMu.Unlock()
	if e.store == nil {
		return
	}
	for _, art := range res.Artifacts {
		if !compiled[art.Name] {
			continue
		}
		if err := e.store.StoreFunc(art.Key, &FuncEntry{Name: art.Name, Unit: core.EncodeUnit(art.Unit)}); err != nil {
			e.met.storeErrors.Inc()
		}
	}
}

// evictFuncsLocked trims the function memo to Options.MaxResidentFuncs
// (arbitrary victims, same contract as evictLocked). Callers must hold
// e.funcMu.
func (e *Engine) evictFuncsLocked() {
	max := e.opts.MaxResidentFuncs
	if max <= 0 || len(e.funcs) <= max {
		return
	}
	for k := range e.funcs {
		if len(e.funcs) <= max {
			return
		}
		delete(e.funcs, k)
		e.met.evictions.Inc()
	}
}

// funcMemoStats reports the number of resident function cells and the
// total memoized leaf evaluations across them. Cells are snapshotted
// under funcMu and walked outside it, so a scrape never blocks a build.
func (e *Engine) funcMemoStats() (cells, entries int) {
	e.funcMu.Lock()
	list := make([]*funcEntry, 0, len(e.funcs))
	//lint:ignore mira/detorder snapshot order is irrelevant: entries are summed, never emitted
	for _, fe := range e.funcs {
		list = append(list, fe)
	}
	e.funcMu.Unlock()
	for _, fe := range list {
		entries += fe.memoLen()
	}
	return len(list), entries
}

// AnalyzeCtx runs the full pipeline on source, or returns the cached
// Analysis if the same content (under the same options) was already
// analyzed. Concurrent requests for the same content are deduplicated:
// exactly one does the work. On a live-cache miss, each function is
// served from the live function memo or, failing that, from a
// configured CacheStore; only functions missing from both recompile.
// Failures are cached too — the pipeline is deterministic, so retrying
// identical input cannot succeed.
//
// Cancellation is honored at every wait point: a
// caller abandoning a duplicate-key wait returns ctx.Err() immediately
// and leaks nothing (the owning compile continues and lands in the cache
// for future requesters); a caller cancelled while queued for a worker
// slot withdraws its cache slot; and the build itself stops at the next
// pipeline stage boundary. Cancellation outcomes are never cached —
// retrying the same source with a live context recompiles — though
// waiters sharing a singleflight slot whose owner was cancelled do share
// that cancellation error for the one round.
func (e *Engine) AnalyzeCtx(ctx context.Context, name, source string) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := e.cacheKey(source)
	e.mu.Lock()
	if c, ok := e.calls[key]; ok {
		e.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		e.hits.Add(1)
		e.met.pipeHits.Inc()
		a, err := c.view(name)
		if err != nil {
			return nil, err
		}
		// A cache hit ran no pipeline: the build's reuse delta belongs to
		// the requester that built the entry, not to this caller.
		return a.withoutDelta(), nil
	}
	c := &call{done: make(chan struct{}), name: name}
	e.calls[key] = c
	e.evictLocked()
	e.mu.Unlock()
	e.misses.Add(1)
	e.met.pipeMisses.Inc()

	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		c.err = ctx.Err()
		e.uncache(key, c)
		close(c.done)
		return nil, c.err
	}
	e.met.inflight.Inc()
	c.a, c.err = e.build(ctx, name, source, key)
	e.met.inflight.Dec()
	<-e.sem

	if isCancellation(c.err) {
		e.uncache(key, c)
	}
	close(c.done)
	return c.a, c.err
}

// view finalizes a completed call for a caller named name. Cross-name
// hits surface the caller's own name on both paths: errors are annotated
// with the first requester's provenance, and successes return an
// Analysis view whose Pipeline carries the caller's name while sharing
// the first requester's memo layer.
func (c *call) view(name string) (*Analysis, error) {
	if c.err != nil {
		if name != c.name {
			// The cached diagnostic cites the first requester's file
			// name; make the provenance visible to this caller.
			return nil, fmt.Errorf("identical content to %s: %w", c.name, c.err)
		}
		return nil, c.err
	}
	return c.a.withName(name), nil
}

// uncache removes a call that completed with a cancellation — an outcome
// of the caller's context, not of the input, so it must not poison the
// content-hash cache for future requesters.
func (e *Engine) uncache(key string, c *call) {
	e.mu.Lock()
	if e.calls[key] == c {
		delete(e.calls, key)
	}
	e.mu.Unlock()
}

// isCancellation reports whether err is a context cancellation or
// deadline expiry (possibly wrapped).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// build produces the Analysis for one live-cache miss: the
// function-granular incremental pipeline, which consults the function
// memo and the store so only functions missing from both recompile,
// then persists the freshly compiled units for the next process. The
// build is panic-guarded — expr constructor contract violations
// reachable through hostile source must surface as errors at this
// boundary, not kill a resident server.
func (e *Engine) build(ctx context.Context, name, source, key string) (*Analysis, error) {
	start := time.Now()
	res, err := safely("analysis", func() (*core.IncrementalResult, error) {
		return core.AnalyzeIncrementalContext(ctx, name, source, e.opts.Core, e.lookupFuncArtifact)
	})
	if err != nil {
		return nil, err
	}
	e.met.analyze.Observe(time.Since(start).Seconds())
	e.met.incrHits.Add(int64(len(res.Delta.Reused)))
	e.met.incrMisses.Add(int64(len(res.Delta.Compiled)))
	e.adoptArtifacts(res)
	a := e.newAnalysis(res.Pipeline, key)
	a.delta = &res.Delta
	return a, nil
}

// ErrPanicked marks an error that safely converted from a panic (check
// with errors.Is): the input drove the analyzer or evaluator into a
// contract violation, which serving layers answer as a bad request.
var ErrPanicked = errors.New("panicked")

// safely converts a panic from fn into an error wrapping ErrPanicked.
// The expr package's constructors enforce contracts by panicking (zero
// floor-div divisors, non-positive loop steps); hostile inputs to a
// resident service can reach them, and the engine boundary is where they
// become 4xx material instead of a dead process.
func safely[T any](what string, fn func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: %s %w: %v", what, ErrPanicked, r)
		}
	}()
	return fn()
}

// evictLocked trims the live cache to Options.MaxResident by deleting
// completed entries (map order, i.e. arbitrary victims). In-flight calls
// are never touched — their waiters hold the call pointer and the
// singleflight contract must hold. Callers must hold e.mu.
func (e *Engine) evictLocked() {
	max := e.opts.MaxResident
	if max <= 0 || len(e.calls) <= max {
		return
	}
	for k, c := range e.calls {
		if len(e.calls) <= max {
			return
		}
		select {
		case <-c.done:
			delete(e.calls, k)
			e.met.evictions.Inc()
		default:
		}
	}
}

// Key returns the content-hash cache key Analyze would use for source —
// the handle mira-serve hands to clients so /query, /sweep and /report
// can reference an already-analyzed program without resending its text.
func (e *Engine) Key(source string) string { return e.cacheKey(source) }

// Lookup returns the completed Analysis cached under key, if any.
// In-flight analyses are not waited for.
func (e *Engine) Lookup(key string) (*Analysis, bool) {
	e.mu.Lock()
	c, ok := e.calls[key]
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-c.done:
		return c.a, c.a != nil
	default:
		return nil, false
	}
}

// Job names one source text for batch analysis.
type Job struct {
	Name   string
	Source string
}

// Result is one batch outcome. Exactly one of Analysis/Err is set.
type Result struct {
	Job      Job
	Analysis *Analysis
	Err      error
}

// AnalyzeAll analyzes every job with bounded parallelism and returns
// results in job order. Errors are collected per item, never short-
// circuiting the batch; use Errors to aggregate them. Cancelling ctx
// makes every not-yet-analyzed job complete immediately with a per-item
// ctx.Err().
func (e *Engine) AnalyzeAll(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	done := make([]bool, len(jobs))
	// The worker fn never fails (per-item errors land in results[i]);
	// cancellation is detected via done[] below, not the return value.
	_ = ForEachCtx(ctx, e.workers, len(jobs), func(i int) error {
		done[i] = true
		a, err := e.AnalyzeCtx(ctx, jobs[i].Name, jobs[i].Source)
		results[i] = Result{Job: jobs[i], Analysis: a, Err: err}
		return nil
	})
	// Cancellation stops the sweep from scheduling; jobs it never
	// reached still report the cancellation per item.
	for i := range results {
		if !done[i] {
			results[i] = Result{Job: jobs[i], Err: ctx.Err()}
		}
	}
	return results
}

// Errors joins the per-item failures of a batch, annotated with the job
// name; nil when every job succeeded.
func Errors(results []Result) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Job.Name, r.Err))
		}
	}
	return errors.Join(errs...)
}

// Stats reports pipeline-cache hit/miss counters. A hit is any Analyze
// call served from the content-hash cache (including waiting on an
// in-flight compile of the same content).
func (e *Engine) Stats() (hits, misses int64) {
	return e.hits.Load(), e.misses.Load()
}

// ForEachCtx runs fn(0..n-1) on at most workers goroutines and waits for
// started work to finish. The first failure stops new indices from being
// scheduled (in-flight items run to completion); the returned error is
// the lowest-index failure among the items that ran, so a given failing
// input reports the same error regardless of schedule. Once ctx is done,
// no new index is scheduled and the sweep reports ctx.Err() like any
// other lowest-index failure.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	run := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(i)
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if errs[i] = run(i); errs[i] != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for !stop.Load() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if errs[i] = run(i); errs[i] != nil {
						stop.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
