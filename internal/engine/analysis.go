package engine

import (
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/pbound"
	"mira/internal/roofline"
)

// Analysis wraps an analyzed pipeline with a memoized evaluation layer.
// The model evaluator is pure but walks the whole call tree and its
// polyhedral multiplicities on every query; experiments ask for the same
// (function, env) point dozens of times (Table II, Fig. 6, the sweeps),
// so repeated queries here cost one map lookup. All methods are safe for
// concurrent use.
//
// Memoized results are keyed by *function-content hash* (core.FuncKeys),
// not by (source, function): the engine keeps one memo cell per function
// key, shared by every analysis whose function resolves to that key. An
// edit that leaves a function (and its callee closure) untouched
// therefore keeps its entire evaluation memo and its symbolic
// compilation — the function-granular extension of the pipeline cache.
type Analysis struct {
	*core.Pipeline

	// eng is the owning engine, the home of the shared per-function memo
	// cells; nil for standalone NewAnalysis wrappers.
	eng *Engine

	// sh is per-content state shared between name views of one analysis:
	// the lazily built PBound report, this analysis's hit/miss counters,
	// and fallback memo cells for queries that resolve to no function key.
	sh *analysisShared

	// met mirrors the counters into the owning engine's observability
	// registry; nil for standalone NewAnalysis wrappers.
	met *metricsSet
	// key is the engine content hash this analysis is cached under;
	// empty for standalone wrappers.
	key string
	// archKey is the content key of the pipeline's own architecture
	// description, precomputed so arch-dependent memo probes need no
	// per-query hashing.
	archKey string
	// workers is the owning engine's parallelism bound, inherited by
	// Sweep's fan-out; zero (standalone wrappers) means GOMAXPROCS.
	workers int
	// delta records the incremental build's reuse outcome; nil when the
	// analysis was not built by an Engine (standalone wrappers).
	delta *core.Delta
}

// analysisShared is the state shared by every name view of one analyzed
// content hash.
type analysisShared struct {
	mu    sync.Mutex
	local map[string]*funcEntry // fallback cells, keyed by function name

	// pbOnce guards the lazy source-only PBound baseline report, built
	// from the pipeline's sema program the first time a KindPBound query
	// arrives.
	pbOnce sync.Once
	pb     *pbound.Report
	pbErr  error

	// regOnce guards the lazily built architecture registry standalone
	// analyses (no owning engine) resolve named arch overrides against.
	regOnce sync.Once
	reg     *arch.Registry

	evalHits   atomic.Int64
	evalMisses atomic.Int64
}

// funcEntry is one function-content key's live cache cell: the compiled
// unit + generated model artifact (when known), the (env, exclusivity)
// evaluation memos, and the singleflighted symbolic compilations. Cells
// live in the engine's function memo, shared across every source version
// that contains the function.
type funcEntry struct {
	mu      sync.RWMutex
	art     *core.FuncArtifact
	metrics map[fevalKey]model.Metrics
	opcodes map[fevalKey]map[ir.Op]int64
	pbounds map[fevalKey]pbound.Counts

	// rooflines and finecats memoize the arch-dependent query kinds.
	// Their key carries the architecture description's *content key*, so
	// two descriptions differing in any single parameter (say bandwidth)
	// occupy distinct entries — the memo can never serve one arch's
	// roofline for another.
	rooflines map[archPointKey]roofline.Analysis
	finecats  map[archPointKey]map[string]int64

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

// archPointKey identifies one arch-dependent memoized query point: the
// canonical env fingerprint plus the architecture description's content
// key (arch.Description.ContentKey).
type archPointKey struct {
	env  string
	arch string // description content key, never a name
}

func newFuncEntry() *funcEntry {
	return &funcEntry{
		metrics:   map[fevalKey]model.Metrics{},
		opcodes:   map[fevalKey]map[ir.Op]int64{},
		pbounds:   map[fevalKey]pbound.Counts{},
		rooflines: map[archPointKey]roofline.Analysis{},
		finecats:  map[archPointKey]map[string]int64{},
		compiled:  map[bool]*compiledSlot{},
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

// memoLen reports the number of memoized evaluation entries in the cell.
func (fe *funcEntry) memoLen() int {
	fe.mu.RLock()
	defer fe.mu.RUnlock()
	return len(fe.metrics) + len(fe.opcodes) + len(fe.pbounds) +
		len(fe.rooflines) + len(fe.finecats)
}

// compiledSlot is a singleflight cell for one compilation.
type compiledSlot struct {
	once sync.Once
	cm   *model.CompiledModel
	err  error
}

// memoFor resolves the memo cell for fn: the engine's shared cell under
// fn's function-content key when this analysis belongs to an engine, or
// a private per-analysis cell otherwise (standalone wrappers, unknown
// function names).
func (a *Analysis) memoFor(fn string) *funcEntry {
	if a.eng != nil && a.Pipeline.FuncKeys != nil {
		if k, ok := a.Pipeline.FuncKeys[fn]; ok {
			return a.eng.funcCell(k)
		}
	}
	a.sh.mu.Lock()
	defer a.sh.mu.Unlock()
	if a.sh.local == nil {
		a.sh.local = map[string]*funcEntry{}
	}
	fe := a.sh.local[fn]
	if fe == nil {
		fe = newFuncEntry()
		a.sh.local[fn] = fe
	}
	return fe
}

// Compiled returns fn's symbolic compilation (see model.Compile), cached
// per function-content key: the partial evaluation of the call tree runs
// once, and every later sweep — from this analysis or any other source
// version sharing the function — reuses it. Compilation panics (expr
// constructor contract violations reachable through hostile source) are
// converted to errors like every other evaluation at this boundary.
func (a *Analysis) Compiled(fn string, exclusive bool) (*model.CompiledModel, error) {
	fe := a.memoFor(fn)
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
		if a.met != nil && slot.err == nil {
			a.met.compile.Observe(time.Since(start).Seconds())
		}
	})
	return slot.cm, slot.err
}

// Key returns the engine's content-hash cache key for this analysis
// (empty for analyses not produced by an Engine). Serving layers hand it
// to clients so later queries can reference the program without
// resending — and without re-hashing — its source.
func (a *Analysis) Key() string { return a.key }

// Delta reports which functions the incremental build reused versus
// recompiled, in link order; nil when no incremental pipeline ran for
// this caller's request (standalone wrappers, live-cache hits).
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

// NewAnalysis wraps an already-built pipeline in a fresh memo layer.
// Engine-produced analyses are shared and cached; this is for callers
// that ran core.Analyze themselves and want memoized queries.
func NewAnalysis(p *core.Pipeline) *Analysis {
	return &Analysis{Pipeline: p, sh: &analysisShared{}, archKey: arch.KeyOf(p.Arch)}
}

// newAnalysis wraps a pipeline with the engine's metrics and cache key
// attached.
func (e *Engine) newAnalysis(p *core.Pipeline, key string) *Analysis {
	a := NewAnalysis(p)
	a.eng = e
	a.met = e.met
	a.key = key
	a.archKey = e.archKey
	a.workers = e.workers
	return a
}

// registry resolves named architecture overrides: the owning engine's
// injected registry, or (for standalone wrappers) a lazily built
// registry of the embedded profiles shared by every name view.
func (a *Analysis) registry() *arch.Registry {
	if a.eng != nil {
		return a.eng.registry
	}
	a.sh.regOnce.Do(func() { a.sh.reg = arch.NewRegistry() })
	return a.sh.reg
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
	return &Analysis{Pipeline: &p, eng: a.eng, sh: a.sh, met: a.met, key: a.key, archKey: a.archKey, workers: a.workers, delta: a.delta}
}

// observeEval records one memo outcome into the engine registry (no-op
// for standalone analyses). seconds is only meaningful for misses.
func (a *Analysis) observeEval(hit bool, seconds float64) {
	if hit {
		a.sh.evalHits.Add(1)
	} else {
		a.sh.evalMisses.Add(1)
	}
	if a.met == nil {
		return
	}
	if hit {
		a.met.evalHits.Inc()
	} else {
		a.met.evalMisses.Inc()
		a.met.eval.Observe(seconds)
	}
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

// memo is the one lookup/compute/store routine behind every query kind:
// a hit in table (one of fe's memo maps, guarded by fe.mu) is counted and
// served; a miss runs compute and stores its result. Errors are not
// cached: they are rare (bad function name or an unbound parameter) and
// carry no reuse value. A leaf kind's compute counts its own miss (see
// evaluate); a kind derived from another memo's entry leaves the count
// to that nested lookup.
func memo[K comparable, V any](a *Analysis, fe *funcEntry, table map[K]V, key K, compute func() (V, error)) (V, error) {
	fe.mu.RLock()
	v, ok := table[key]
	fe.mu.RUnlock()
	if ok {
		a.observeEval(true, 0)
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	fe.mu.Lock()
	table[key] = v
	fe.mu.Unlock()
	return v, nil
}

// evaluate runs one leaf evaluation — a model walk or a PBound count —
// panic-guarded, and counts it as a memo miss with its duration.
func evaluate[V any](a *Analysis, what string, f func() (V, error)) (V, error) {
	start := time.Now()
	v, err := safely(what, f)
	a.observeEval(false, time.Since(start).Seconds())
	return v, err
}

// metrics evaluates fn's inclusive or body-only metrics under env.
func (a *Analysis) metrics(fn string, env expr.Env, exclusive bool) (model.Metrics, error) {
	fe := a.memoFor(fn)
	key := fevalKey{env: envFingerprint(env), exclusive: exclusive}
	return memo(a, fe, fe.metrics, key, func() (model.Metrics, error) {
		return evaluate(a, "evaluation", func() (model.Metrics, error) {
			if exclusive {
				return a.Model.EvaluateExclusive(fn, env)
			}
			return a.Model.Evaluate(fn, env)
		})
	})
}

// opcodes evaluates fn's inclusive per-opcode counts under env. The map
// is the memo's own: callers bucket it and never mutate it.
func (a *Analysis) opcodes(fn string, env expr.Env) (map[ir.Op]int64, error) {
	fe := a.memoFor(fn)
	return memo(a, fe, fe.opcodes, fevalKey{env: envFingerprint(env)}, func() (map[ir.Op]int64, error) {
		return evaluate(a, "evaluation", func() (map[ir.Op]int64, error) {
			return a.Model.EvaluateOpcodes(fn, env)
		})
	})
}

// fineCats buckets fn's counts into d's fine categories, memoized under
// (env, d's content key). archKey must be d.ContentKey() — callers pass
// it precomputed so a memo probe never re-hashes the description. The
// returned map is a fresh copy the caller may mutate.
func (a *Analysis) fineCats(fn string, env expr.Env, d *arch.Description, archKey string) (map[string]int64, error) {
	fe := a.memoFor(fn)
	key := archPointKey{env: envFingerprint(env), arch: archKey}
	cats, err := memo(a, fe, fe.finecats, key, func() (map[string]int64, error) {
		ops, err := a.opcodes(fn, env)
		if err != nil {
			return nil, err
		}
		return core.BucketFine(d, ops), nil
	})
	if err != nil {
		return nil, err
	}
	return maps.Clone(cats), nil
}

// rooflineFor computes fn's roofline assessment against d, memoized under
// (env, d's content key) like fineCats. The memo stores the analysis by
// value; callers get a private copy.
func (a *Analysis) rooflineFor(fn string, env expr.Env, d *arch.Description, archKey string) (*roofline.Analysis, error) {
	fe := a.memoFor(fn)
	key := archPointKey{env: envFingerprint(env), arch: archKey}
	roof, err := memo(a, fe, fe.rooflines, key, func() (roofline.Analysis, error) {
		met, err := a.metrics(fn, env, false)
		if err != nil {
			return roofline.Analysis{}, err
		}
		r, err := roofline.Analyze(fn, met, d)
		if err != nil {
			return roofline.Analysis{}, err
		}
		return *r, nil
	})
	if err != nil {
		return nil, err
	}
	return &roof, nil
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

// pboundCounts evaluates the source-only PBound bounds of fn under env. The
// memo cell is the function's content key, so the counts — a pure
// function of fn's source subtree and callee closure — survive edits
// elsewhere in the file.
func (a *Analysis) pboundCounts(fn string, env expr.Env) (pbound.Counts, error) {
	rep, err := a.pboundReport()
	if err != nil {
		return pbound.Counts{}, err
	}
	fe := a.memoFor(fn)
	return memo(a, fe, fe.pbounds, fevalKey{env: envFingerprint(env)}, func() (pbound.Counts, error) {
		return evaluate(a, "pbound evaluation", func() (pbound.Counts, error) {
			return rep.EvalCounts(fn, env)
		})
	})
}

// EvalStats reports this analysis's memoized-evaluation hit/miss
// counters (shared across name views; hits served from another source
// version's shared cell count as hits here).
func (a *Analysis) EvalStats() (hits, misses int64) {
	return a.sh.evalHits.Load(), a.sh.evalMisses.Load()
}
