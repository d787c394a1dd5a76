package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"
)

// Wire forms of the daemon's answers, reduced to what the checks read.
type metricsWire struct {
	Instrs int64 `json:"instrs"`
	Flops  int64 `json:"flops"`
	FPI    int64 `json:"fpi"`
}

type analyzeWire struct {
	Key       string `json:"key"`
	Functions []struct {
		Name   string `json:"name"`
		Extern bool   `json:"extern"`
	} `json:"functions"`
	Incremental *struct {
		Reused     []string `json:"reused"`
		Recompiled []string `json:"recompiled"`
	} `json:"incremental"`
}

type cellWire struct {
	Fn       string          `json:"fn"`
	Error    string          `json:"error"`
	Metrics  *metricsWire    `json:"metrics"`
	Roofline json.RawMessage `json:"roofline"`
}

type queryWire struct {
	Results []cellWire `json:"results"`
}

type sweepWire struct {
	Total  int `json:"total"`
	Points []struct {
		Env      map[string]int64 `json:"env"`
		Arch     string           `json:"arch"`
		Error    string           `json:"error"`
		Metrics  *metricsWire     `json:"metrics"`
		Roofline json.RawMessage  `json:"roofline"`
	} `json:"points"`
}

type wireQuery struct {
	Fn   string           `json:"fn"`
	Env  map[string]int64 `json:"env,omitempty"`
	Kind string           `json:"kind"`
	Arch string           `json:"arch,omitempty"`
}

// sweepSample is one sweep point kept for the sweep-vs-query check.
type sweepSample struct {
	prog     int
	fn, arch string
	env      map[string]int64
	metrics  *metricsWire
	roofline json.RawMessage
}

// session drives one daemon through one plan and checks every answer.
type session struct {
	pl   *plan
	d    *daemon
	keys []string // daemon content key per plan.progs entry

	// query: first answer per (program, point), for repeat checks.
	answers map[string][]cellWire
	// sweep: points kept for the sweep-vs-query check.
	samples []sweepSample
	// analyze / edit: ops kept for the VM check.
	vmOps []op

	failures  []string
	respBytes int64
}

func (s *session) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if len(s.failures) < 20 {
		s.failures = append(s.failures, err.Error())
	}
	return err
}

// prime analyzes the plan's program set, recording content keys.
func (s *session) prime(ctx context.Context) error {
	s.keys = make([]string, len(s.pl.progs))
	for i, p := range s.pl.progs {
		var a analyzeWire
		if _, _, err := s.d.postJSON(ctx, "/analyze", map[string]string{"name": p.name, "source": p.src}, &a); err != nil {
			return fmt.Errorf("prime %s: %v", p.name, err)
		}
		s.keys[i] = a.Key
	}
	return nil
}

// do sends one op, checks its answer, and returns the round trip. A
// transport failure or a wrong answer is an error: the op failed.
func (s *session) do(ctx context.Context, o *op, idx int) (time.Duration, error) {
	switch {
	case o.src != "": // analyze, edit
		var a analyzeWire
		rtt, n, err := s.d.postJSON(ctx, "/analyze", map[string]string{"name": o.name, "source": o.src}, &a)
		s.respBytes += int64(n)
		if err != nil {
			return rtt, s.fail("analyze %s: %v", o.name, err)
		}
		if a.Key == "" || len(a.Functions) == 0 || a.Incremental == nil {
			return rtt, s.fail("analyze %s: no key, functions or incremental delta (a cache hit?)", o.name)
		}
		if o.fn != "" {
			if !slices.Equal(a.Incremental.Recompiled, []string{o.fn}) {
				return rtt, s.fail("edit of %s in %s recompiled %v, want exactly [%s]", o.fn, o.name, a.Incremental.Recompiled, o.fn)
			}
		} else if len(a.Incremental.Reused) != 0 {
			return rtt, s.fail("analyze %s reused %v: the program was not new", o.name, a.Incremental.Reused)
		}
		if o.vm && idx%vmSampleEvery == 0 {
			s.vmOps = append(s.vmOps, *o)
		}
		return rtt, nil
	case o.cells != nil: // query
		req := map[string]any{"key": s.keys[o.prog], "queries": queryCells(o.cells, o.env)}
		var q queryWire
		rtt, n, err := s.d.postJSON(ctx, "/query", req, &q)
		s.respBytes += int64(n)
		if err != nil {
			return rtt, s.fail("query: %v", err)
		}
		if len(q.Results) != len(o.cells) {
			return rtt, s.fail("query: %d cells answered, want %d", len(q.Results), len(o.cells))
		}
		for i, c := range q.Results {
			if c.Error != "" || c.Metrics == nil || c.Fn != o.cells[i] {
				return rtt, s.fail("query %s at %v: %q", o.cells[i], o.env, c.Error)
			}
		}
		k := fmt.Sprintf("%d|%s", o.prog, envKey(o.env))
		if first, ok := s.answers[k]; ok {
			for i := range first {
				if *first[i].Metrics != *q.Results[i].Metrics {
					return rtt, s.fail("query %s at %v: repeat answered %+v, first %+v", o.cells[i], o.env, *q.Results[i].Metrics, *first[i].Metrics)
				}
			}
		} else {
			s.answers[k] = q.Results
		}
		return rtt, nil
	default: // sweep
		req := map[string]any{"key": s.keys[o.prog], "fn": o.fn, "kind": o.kind, "axes": o.axes}
		if o.archs != nil {
			req["archs"] = o.archs
		}
		body, _ := json.Marshal(req)
		raw, rtt, err := s.d.post(ctx, "/sweep", body)
		s.respBytes += int64(len(raw))
		if err != nil {
			return rtt, s.fail("sweep %s: %v", o.fn, err)
		}
		if err := checkSweep(raw, o); err != nil {
			return rtt, s.fail("sweep %s: %v", o.fn, err)
		}
		if idx%sweepSampleEvery != 0 {
			return rtt, nil
		}
		var w sweepWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return rtt, s.fail("sweep %s: %v", o.fn, err)
		}
		for _, i := range []int{0, len(w.Points) / 2, len(w.Points) - 1} {
			p := w.Points[i]
			if p.Error != "" || (o.kind == "static" && p.Metrics == nil) || (o.kind == "roofline" && len(p.Roofline) == 0) {
				return rtt, s.fail("sweep %s point %v: no %s answer", o.fn, p.Env, o.kind)
			}
			s.samples = append(s.samples, sweepSample{prog: o.prog, fn: o.fn, arch: p.Arch, env: p.Env, metrics: p.Metrics, roofline: p.Roofline})
		}
		return rtt, nil
	}
}

// checkSweep checks a whole /sweep answer without decoding its points:
// the client does this between two timed sweeps, and decoding 4096 points
// costs more than the daemon's own evaluation of them. The body must be
// one valid JSON document whose header total is the planned grid, with
// exactly that many points, none of them an error and each carrying the
// answer its kind asks for. (The daemon writes the header first and one
// {"env":...} object per point; no answer object has an "error" key.)
func checkSweep(raw []byte, o *op) error {
	if !json.Valid(raw) {
		return fmt.Errorf("answer is not one JSON document")
	}
	want := int(o.work)
	_, rest, ok := bytes.Cut(raw, []byte(`"total":`))
	if end := bytes.IndexByte(rest, ','); !ok || end < 0 || string(rest[:end]) != strconv.Itoa(want) {
		return fmt.Errorf("header total is not %d", want)
	}
	answer := []byte(`"metrics":`)
	if o.kind == "roofline" {
		answer = []byte(`"roofline":`)
	}
	if n := bytes.Count(raw, []byte(`{"env":`)); n != want {
		return fmt.Errorf("%d points, want %d", n, want)
	}
	if n := bytes.Count(raw, answer); n != want {
		return fmt.Errorf("%d of %d points carry %s", n, want, answer)
	}
	if n := bytes.Count(raw, []byte(`"error":`)); n != 0 {
		return fmt.Errorf("%d points answered an error", n)
	}
	return nil
}

// Checking samples: every vmSampleEvery-th analyze/edit op is re-run on
// the VM; three points of every sweepSampleEvery-th sweep are re-asked
// through /query.
const (
	vmSampleEvery    = 25
	sweepSampleEvery = 8
)

func queryCells(fns []string, env map[string]int64) []wireQuery {
	out := make([]wireQuery, len(fns))
	for i, fn := range fns {
		out[i] = wireQuery{Fn: fn, Env: env, Kind: "static"}
	}
	return out
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	lat       []time.Duration // successful ops only
	rtt       []time.Duration // every op, in plan order
	respBytes int64
	wall      time.Duration
	work      float64
	attempted int
	failed    int
	cpu       time.Duration
	hwmKiB    float64
	before    map[string]float64
	after     map[string]float64
	// ref are the reference unit times measured between the timed ops
	// (see speed.go); wall excludes them.
	ref []time.Duration
}

// runPhase sends ops in a closed loop and measures them.
func (s *session) runPhase(ctx context.Context, ops []op) (*phaseResult, error) {
	res := &phaseResult{lat: make([]time.Duration, 0, len(ops))}
	var err error
	if res.before, err = s.d.scrape(); err != nil {
		return nil, err
	}
	st0, err := s.d.stat()
	if err != nil {
		return nil, err
	}
	bytes0 := s.respBytes
	st := refOnce()
	every := max(1, len(ops)/refPerRound)
	var refTime time.Duration
	start := time.Now()
	for i := range ops {
		if i%every == 0 {
			d := st.timeRef()
			res.ref = append(res.ref, d)
			refTime += d
		}
		rtt, err := s.do(ctx, &ops[i], i)
		res.rtt = append(res.rtt, rtt)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		res.lat = append(res.lat, rtt)
		res.work += ops[i].work
	}
	res.wall = time.Since(start) - refTime
	res.respBytes = s.respBytes - bytes0
	st1, err := s.d.stat()
	if err != nil {
		return nil, err
	}
	res.cpu, res.hwmKiB = st1.cpu-st0.cpu, st1.hwmKiB
	if res.after, err = s.d.scrape(); err != nil {
		return nil, err
	}
	return res, nil
}

// delta is a counter's increase over the phase.
func (r *phaseResult) delta(name string) float64 { return r.after[name] - r.before[name] }

// setup starts a daemon, primes it and runs the warm-up ops; it returns
// the ready session and the set-up time.
func setup(ctx context.Context, bin string, pl *plan) (*session, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, err
	}
	s := &session{pl: pl, d: d, answers: map[string][]cellWire{}}
	if err := s.prime(ctx); err != nil {
		d.stop()
		return nil, 0, err
	}
	for i := range pl.warm {
		if _, err := s.do(ctx, &pl.warm[i], -1); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up: %v", err)
		}
	}
	return s, time.Since(start), nil
}

// premise checks the workload's defining property on the daemon's own
// counters over the timed phase, and returns the counters to report.
func premise(pl *plan, r *phaseResult) (map[string]float64, []string) {
	names := []string{
		"mira_pipeline_cache_hits_total", "mira_pipeline_cache_misses_total",
		"mira_incremental_hits_total", "mira_incremental_misses_total",
		"mira_eval_memo_hits_total", "mira_eval_memo_misses_total",
		"mira_sweep_points_total",
		"mira_analyze_seconds_sum", "mira_compile_seconds_sum", "mira_eval_seconds_sum",
		"mira_sweep_seconds_sum", "mira_http_seconds_sum",
	}
	out := map[string]float64{}
	for _, n := range names {
		out[n] = r.delta(n)
	}
	out["mira_function_memo_entries"] = r.after["mira_function_memo_entries"]
	var bad []string
	want := func(name string, got, exp float64) {
		if got != exp {
			bad = append(bad, fmt.Sprintf("%s: %s moved by %g over the timed phase, want %g", pl.workload, name, got, exp))
		}
	}
	ops := float64(r.attempted)
	switch pl.workload {
	case "analyze":
		want("mira_pipeline_cache_hits_total", out["mira_pipeline_cache_hits_total"], 0)
		want("mira_incremental_hits_total", out["mira_incremental_hits_total"], 0)
	case "edit":
		want("mira_pipeline_cache_hits_total", out["mira_pipeline_cache_hits_total"], 0)
		want("mira_incremental_misses_total", out["mira_incremental_misses_total"], ops)
	case "query":
		var hitCells, cells float64
		for _, o := range pl.timed {
			cells += o.work
			if o.repeat {
				hitCells += o.work
			}
		}
		want("mira_eval_memo_hits_total", out["mira_eval_memo_hits_total"], hitCells)
		want("mira_eval_memo_misses_total", out["mira_eval_memo_misses_total"], cells-hitCells)
	case "sweep":
		var pts float64
		for _, o := range pl.timed {
			pts += o.work
		}
		want("mira_sweep_points_total", out["mira_sweep_points_total"], pts)
		want("mira_eval_memo_misses_total", out["mira_eval_memo_misses_total"], 0)
	}
	return out, bad
}

// percentile is the nearest-rank q-quantile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(len(sorted)-1, i))]
}

// tailLadder are the percentiles tail_ms may report, highest first.
var tailLadder = []float64{0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5}

// tailPercentile picks the highest ladder percentile with at least ten
// samples beyond it.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := slices.Clone(d)
	slices.Sort(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
