package engine

import (
	"mira/internal/obs"
)

// metricsSet groups the engine's observability instruments. Every engine
// has one (over a private registry when the caller supplied none), so the
// hot paths never nil-check.
//
// Exposed series, in OpenMetrics terms:
//
//	mira_pipeline_cache_hits/misses_total   live (in-process) cache
//	mira_store_hits/misses/errors_total     persistent CacheStore, per
//	                                        function after a memo miss
//	mira_incremental_hits/misses_total      function-granular reuse
//	mira_eval_memo_hits/misses_total        (function, env) leaf memos
//	mira_cache_evictions_total              live-cache entries (MaxResident)
//	                                        plus function-memo cells
//	                                        (MaxResidentFuncs) evicted
//	mira_analyze_seconds                    pipeline analysis latency
//	mira_eval_seconds                       model evaluation latency
//	mira_compile_seconds                    symbolic compilation latency
//	mira_sweep_seconds                      whole-sweep latency
//	mira_sweep_points_total                 compiled sweep points evaluated
//	mira_analyses_inflight                  gauge
//	mira_resident_analyses                  gauge (scrape-computed)
//	mira_function_memo_entries              gauge (scrape-computed)
//	mira_eval_memo_entries                  gauge (scrape-computed): leaf
//	                                        entries (metrics, opcodes,
//	                                        PBound counts); derived kinds
//	                                        are never memoized
//	mira_arch_registry_entries              gauge (scrape-computed)
type metricsSet struct {
	pipeHits    *obs.Counter
	pipeMisses  *obs.Counter
	storeHits   *obs.Counter
	storeMisses *obs.Counter
	storeErrors *obs.Counter
	incrHits    *obs.Counter
	incrMisses  *obs.Counter
	evalHits    *obs.Counter
	evalMisses  *obs.Counter
	evictions   *obs.Counter
	sweepPoints *obs.Counter

	analyze *obs.Summary
	eval    *obs.Summary
	compile *obs.Summary
	sweep   *obs.Summary

	inflight *obs.Gauge
}

func newMetricsSet(r *obs.Registry) *metricsSet {
	return &metricsSet{
		pipeHits:    r.Counter("mira_pipeline_cache_hits", "analyses served from the live content-hash cache"),
		pipeMisses:  r.Counter("mira_pipeline_cache_misses", "analyses that missed the live cache"),
		storeHits:   r.Counter("mira_store_hits", "functions restored from the persistent cache store after a function-memo miss"),
		storeMisses: r.Counter("mira_store_misses", "per-function persistent-store lookups that missed"),
		storeErrors: r.Counter("mira_store_errors", "persistent-store entries that failed to load, verify, or save"),
		incrHits:    r.Counter("mira_incremental_hits", "functions reused from the function memo or the store during incremental analysis"),
		incrMisses:  r.Counter("mira_incremental_misses", "functions recompiled during incremental analysis"),
		evalHits:    r.Counter("mira_eval_memo_hits", "model evaluations served from the (function, env) memo"),
		evalMisses:  r.Counter("mira_eval_memo_misses", "model evaluations that walked the model"),
		evictions:   r.Counter("mira_cache_evictions", "live-cache entries evicted under the MaxResident bound plus function-memo cells evicted under the MaxResidentFuncs bound"),
		sweepPoints: r.Counter("mira_sweep_points", "grid points evaluated by compiled sweeps"),
		analyze:     r.Summary("mira_analyze_seconds", "pipeline analysis latency (live-cache misses)"),
		eval:        r.Summary("mira_eval_seconds", "model evaluation latency (memo misses)"),
		compile:     r.Summary("mira_compile_seconds", "symbolic model compilation latency"),
		sweep:       r.Summary("mira_sweep_seconds", "whole-sweep latency (grid expansion through last point)"),
		inflight:    r.Gauge("mira_analyses_inflight", "pipeline analyses currently running"),
	}
}

// registerEngineGauges adds the scrape-computed gauges that walk the
// engine's live cache. Registered from New, after the engine exists.
func registerEngineGauges(r *obs.Registry, e *Engine) {
	r.GaugeFunc("mira_resident_analyses", "completed analyses resident in the live cache", func() float64 {
		return float64(e.residentStats())
	})
	r.GaugeFunc("mira_function_memo_entries", "per-function memo cells resident in the engine", func() float64 {
		cells, _ := e.funcMemoStats()
		return float64(cells)
	})
	r.GaugeFunc("mira_eval_memo_entries", "total memoized leaf evaluations (metrics, opcodes, PBound counts) across the function memo", func() float64 {
		_, entries := e.funcMemoStats()
		return float64(entries)
	})
	r.GaugeFunc("mira_arch_registry_entries", "architecture descriptions resolvable through the engine's registry", func() float64 {
		return float64(e.registry.Len())
	})
}

// residentStats counts completed successful analyses. Only calls whose
// done channel is closed are touched, so the walk never races with a
// writer or blocks on an in-flight compile.
func (e *Engine) residentStats() (resident int) {
	e.mu.Lock()
	calls := make([]*call, 0, len(e.calls))
	//lint:ignore mira/detorder snapshot order is irrelevant: the walk only counts residents
	for _, c := range e.calls {
		calls = append(calls, c)
	}
	e.mu.Unlock()
	for _, c := range calls {
		select {
		case <-c.done:
			if c.a != nil {
				resident++
			}
		default:
		}
	}
	return resident
}
