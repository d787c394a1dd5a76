package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/pbound"
)

// Analysis wraps an analyzed pipeline with a memoized evaluation layer.
// The model evaluator is pure but walks the whole call tree and its
// polyhedral multiplicities on every query; experiments ask for the same
// (function, env) point dozens of times (Table II, Fig. 6, the sweeps),
// so the two leaf evaluations every query kind derives from — the
// metrics and the per-opcode counts (plus the PBound counts) — are
// memoized, and a repeated query costs one map lookup plus its
// derivation (bucketing, roofline). All methods are safe for concurrent
// use.
//
// Memoized results are keyed by *function-content hash* (core.FuncKeys),
// not by (source, function): the owning engine keeps one memo cell per
// function key, shared by every analysis whose function resolves to that
// key. An edit that leaves a function (and its callee closure) untouched
// therefore keeps its entire evaluation memo and its symbolic
// compilation — the function-granular extension of the pipeline cache.
type Analysis struct {
	*core.Pipeline

	// eng is the owning engine: the home of the shared per-function memo
	// cells, the architecture registry, the worker bound and the metrics.
	eng *Engine

	// sh is per-content state shared between name views of one analysis:
	// the lazily built PBound report and this analysis's hit/miss
	// counters.
	sh *analysisShared

	// key is the engine content hash this analysis is cached under.
	key string
	// delta records the incremental build's reuse outcome; nil on views
	// served from the live cache.
	delta *core.Delta
}

// analysisShared is the state shared by every name view of one analyzed
// content hash.
type analysisShared struct {
	// pbOnce guards the lazy source-only PBound baseline report, built
	// from the pipeline's sema program the first time a KindPBound query
	// arrives.
	pbOnce sync.Once
	pb     *pbound.Report
	pbErr  error

	evalHits   atomic.Int64
	evalMisses atomic.Int64
}

// funcEntry is one function-content key's live cache cell: the compiled
// unit + generated model artifact (when known), the (env, exclusivity)
// leaf evaluation memos, and the singleflighted symbolic compilations.
// Cells live in the engine's function memo, shared across every source
// version that contains the function. Nothing architecture-dependent is
// memoized: fine categories and rooflines are derived from the leaves on
// every query, so no entry can be served for another architecture.
type funcEntry struct {
	mu      sync.RWMutex
	art     *core.FuncArtifact
	metrics memoTable[model.Metrics]
	opcodes memoTable[map[ir.Op]int64]
	pbounds memoTable[pbound.Counts]

	// compiled caches the symbolic compilations (one per exclusivity),
	// singleflighted: a sweep storm over one function compiles it once.
	compiledMu sync.Mutex
	compiled   map[bool]*compiledSlot //lint:guarded-by compiledMu
}

// fevalKey identifies one memoized query point within a function cell.
type fevalKey struct {
	env       string // canonical fingerprint, see envFingerprint
	exclusive bool
}

// memoTable is one leaf's memo within a function cell (guarded by the
// cell's mu): the stored results, and the evaluations in flight, so
// concurrent misses on one key run the evaluation once. flying is made
// at the table's first miss, so a leaf never evaluated costs no map.
type memoTable[V any] struct {
	done   map[fevalKey]V
	flying map[fevalKey]*flight[V]
}

// flight is one in-flight evaluation; wg is done once v and err are set.
type flight[V any] struct {
	wg  sync.WaitGroup
	v   V
	err error
}

func newMemoTable[V any]() memoTable[V] {
	return memoTable[V]{done: map[fevalKey]V{}}
}

func newFuncEntry() *funcEntry {
	return &funcEntry{
		metrics:  newMemoTable[model.Metrics](),
		opcodes:  newMemoTable[map[ir.Op]int64](),
		pbounds:  newMemoTable[pbound.Counts](),
		compiled: map[bool]*compiledSlot{},
	}
}

// artifact returns the cell's per-function artifact, if adopted.
func (fe *funcEntry) artifact() *core.FuncArtifact {
	fe.mu.RLock()
	defer fe.mu.RUnlock()
	return fe.art
}

// adopt installs (or upgrades) the cell's artifact. A model-carrying
// artifact never downgrades to a unit-only one.
func (fe *funcEntry) adopt(art *core.FuncArtifact) {
	fe.mu.Lock()
	if fe.art == nil || (fe.art.Model == nil && art.Model != nil) {
		fe.art = art
	}
	fe.mu.Unlock()
}

// memoLen reports the number of memoized leaf evaluations in the cell.
func (fe *funcEntry) memoLen() int {
	fe.mu.RLock()
	defer fe.mu.RUnlock()
	return len(fe.metrics.done) + len(fe.opcodes.done) + len(fe.pbounds.done)
}

// compiledSlot is a singleflight cell for one compilation.
type compiledSlot struct {
	once sync.Once
	cm   *model.CompiledModel
	err  error
}

// cell returns fn's memo cell: the owning engine's cell under fn's
// function-content key. A name the program does not define fails here,
// before any cell exists, so clients naming arbitrary functions cannot
// grow the engine.
func (a *Analysis) cell(fn string) (*funcEntry, error) {
	k, ok := a.FuncKeys[fn]
	if !ok {
		return nil, fmt.Errorf("model: no function %q", fn)
	}
	return a.eng.funcCell(k), nil
}

// Compiled returns fn's symbolic compilation (see model.Compile), cached
// per function-content key: the partial evaluation of the call tree runs
// once, and every later sweep — from this analysis or any other source
// version sharing the function — reuses it. Compilation panics (expr
// constructor contract violations reachable through hostile source) are
// converted to errors like every other evaluation at this boundary.
func (a *Analysis) Compiled(fn string, exclusive bool) (*model.CompiledModel, error) {
	fe, err := a.cell(fn)
	if err != nil {
		return nil, err
	}
	fe.compiledMu.Lock()
	slot, ok := fe.compiled[exclusive]
	if !ok {
		slot = &compiledSlot{}
		fe.compiled[exclusive] = slot
	}
	fe.compiledMu.Unlock()
	slot.once.Do(func() {
		start := time.Now()
		slot.cm, slot.err = safely("compilation", func() (*model.CompiledModel, error) {
			if exclusive {
				return a.Model.CompileExclusive(fn)
			}
			return a.Model.Compile(fn)
		})
		if slot.err == nil {
			a.eng.met.compile.Observe(time.Since(start).Seconds())
		}
	})
	return slot.cm, slot.err
}

// Key returns the engine's content-hash cache key for this analysis.
// Serving layers hand it to clients so later queries can reference the
// program without resending — and without re-hashing — its source.
func (a *Analysis) Key() string { return a.key }

// Delta reports which functions the incremental build reused versus
// recompiled, in link order; nil when no pipeline ran for this caller's
// request (live-cache hits).
func (a *Analysis) Delta() *core.Delta { return a.delta }

// withoutDelta returns a view of the analysis with no reuse delta — what
// a cache hit serves, since no pipeline ran for that caller. The view
// shares the memo layer like every other view.
func (a *Analysis) withoutDelta() *Analysis {
	if a.delta == nil {
		return a
	}
	v := *a
	v.delta = nil
	return &v
}

// newAnalysis wraps a pipeline the engine built, cached under key.
func (e *Engine) newAnalysis(p *core.Pipeline, key string) *Analysis {
	return &Analysis{Pipeline: p, eng: e, sh: &analysisShared{}, key: key}
}

// withName returns a view of the analysis whose Pipeline carries name —
// what a caller whose identical content hit another requester's cache
// entry sees, mirroring how the error path annotates provenance. The
// view shares the memo layer (and the underlying immutable artifacts)
// with the original; only the reported name differs.
func (a *Analysis) withName(name string) *Analysis {
	if name == "" || name == a.Pipeline.Name {
		return a
	}
	p := *a.Pipeline
	p.Name = name
	v := *a
	v.Pipeline = &p
	return &v
}

// observeEval records one memo outcome into the analysis's counters and
// the engine registry. seconds is only meaningful for misses.
func (a *Analysis) observeEval(hit bool, seconds float64) {
	if hit {
		a.sh.evalHits.Add(1)
		a.eng.met.evalHits.Inc()
		return
	}
	a.sh.evalMisses.Add(1)
	a.eng.met.evalMisses.Inc()
	a.eng.met.eval.Observe(seconds)
}

// envFingerprint canonicalizes an environment: sorted name=value pairs
// of exact rationals. Two envs binding the same values fingerprint
// identically regardless of construction order.
func envFingerprint(env expr.Env) string {
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(env[k].String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// memo is the one lookup/compute/store routine behind every leaf: a hit
// in table (one of fe's memo tables, guarded by fe.mu) is counted and
// served; a miss runs f — panic-guarded, timed, and counted — and stores
// its result. Misses on one key are singleflighted: a request arriving
// while the key is being evaluated waits for that evaluation, shares its
// value or error, and counts as a hit. Errors are not stored: they are
// rare (an unbound parameter, an overflowing count) and carry no reuse
// value.
func memo[V any](a *Analysis, fe *funcEntry, table *memoTable[V], key fevalKey, what string, f func() (V, error)) (V, error) {
	fe.mu.RLock()
	v, ok := table.done[key]
	fe.mu.RUnlock()
	if ok {
		a.observeEval(true, 0)
		return v, nil
	}
	fe.mu.Lock()
	if v, ok := table.done[key]; ok {
		fe.mu.Unlock()
		a.observeEval(true, 0)
		return v, nil
	}
	if fl, ok := table.flying[key]; ok {
		fe.mu.Unlock()
		fl.wg.Wait()
		a.observeEval(true, 0)
		return fl.v, fl.err
	}
	fl := &flight[V]{}
	fl.wg.Add(1)
	if table.flying == nil {
		table.flying = map[fevalKey]*flight[V]{}
	}
	table.flying[key] = fl
	fe.mu.Unlock()

	start := time.Now()
	fl.v, fl.err = safely(what, f)
	a.observeEval(false, time.Since(start).Seconds())
	fe.mu.Lock()
	delete(table.flying, key)
	if fl.err == nil {
		table.done[key] = fl.v
	}
	fe.mu.Unlock()
	fl.wg.Done()
	return fl.v, fl.err
}

// memoLeaves evaluates one query's leaves through fn's memo cell: a hit
// is a map lookup, a miss walks the model tree.
type memoLeaves struct {
	a   *Analysis
	fe  *funcEntry
	fn  string
	env expr.Env
}

func (l memoLeaves) metrics(exclusive bool) (model.Metrics, error) {
	key := fevalKey{env: envFingerprint(l.env), exclusive: exclusive}
	return memo(l.a, l.fe, &l.fe.metrics, key, "evaluation", func() (model.Metrics, error) {
		if exclusive {
			return l.a.Model.EvaluateExclusive(l.fn, l.env)
		}
		return l.a.Model.Evaluate(l.fn, l.env)
	})
}

// opcodes returns the memo's own map: callers bucket it and never mutate
// it.
func (l memoLeaves) opcodes() (map[ir.Op]int64, error) {
	return memo(l.a, l.fe, &l.fe.opcodes, fevalKey{env: envFingerprint(l.env)}, "evaluation", func() (map[ir.Op]int64, error) {
		return l.a.Model.EvaluateOpcodes(l.fn, l.env)
	})
}

// pbound evaluates the source-only PBound bounds. The memo cell is the
// function's content key, so the counts — a pure function of fn's source
// subtree and callee closure — survive edits elsewhere in the file.
func (l memoLeaves) pbound() (pbound.Counts, error) {
	rep, err := l.a.pboundReport()
	if err != nil {
		return pbound.Counts{}, err
	}
	return memo(l.a, l.fe, &l.fe.pbounds, fevalKey{env: envFingerprint(l.env)}, "pbound evaluation", func() (pbound.Counts, error) {
		return rep.EvalCounts(l.fn, l.env)
	})
}

// pboundReport lazily builds (once per content hash) the source-only
// PBound baseline report from the pipeline's sema program. The walk is
// panic-guarded like every other evaluation path at this boundary.
func (a *Analysis) pboundReport() (*pbound.Report, error) {
	sh := a.sh
	sh.pbOnce.Do(func() {
		sh.pb, sh.pbErr = safely("pbound analysis", func() (*pbound.Report, error) {
			return pbound.Analyze(a.Prog)
		})
	})
	return sh.pb, sh.pbErr
}

// EvalStats reports this analysis's memoized-evaluation hit/miss
// counters (shared across name views; hits served from another source
// version's shared cell count as hits here).
func (a *Analysis) EvalStats() (hits, misses int64) {
	return a.sh.evalHits.Load(), a.sh.evalMisses.Load()
}
