// Package loadgen is Mira's HTTP load generator: the engine behind
// `mira-bench -load` and the cluster smoke test. It drives a weighted
// mix of operations against a set of target replicas in either a
// closed loop (a fixed worker count, each firing as fast as responses
// return — measures capacity) or an open loop (a target arrival rate
// paced independently of response times — measures behavior at a
// given offered load, the honest way to see queueing collapse), and
// reports per-class outcome counts and latency quantiles from
// log-bucketed histograms.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Op is one operation in the mix.
type Op struct {
	// Name labels the op in results ("query").
	Name string
	// Class is the op's QoS class label ("interactive", "bulk");
	// results aggregate per class.
	Class string
	// Weight is the op's relative frequency in the mix (default 1).
	Weight int
	// Method and Path address the op; Body is the fixed JSON payload.
	Method string
	Path   string
	Body   []byte
}

// Spec describes one load run.
type Spec struct {
	// Targets are the replica base URLs; workers rotate through them.
	Targets []string
	// Ops is the weighted operation mix.
	Ops []Op
	// Concurrency is the worker count (default 16).
	Concurrency int
	// RPS, when positive, switches to an open loop: arrivals are paced
	// at this aggregate rate regardless of response times. Zero means
	// closed loop.
	RPS float64
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// Timeout bounds one request (default 10s).
	Timeout time.Duration
}

// ClassStats aggregates one QoS class's outcomes.
type ClassStats struct {
	Class string
	// Sent counts completed request attempts.
	Sent int64
	// OK counts 2xx responses.
	OK int64
	// RateLimited counts 429 responses.
	RateLimited int64
	// Shed counts 503 responses carrying Retry-After — deliberate
	// load shedding, distinct from server failure.
	Shed int64
	// Err5xx counts 5xx responses that were NOT deliberate sheds.
	Err5xx int64
	// Err4xx counts non-429 4xx responses.
	Err4xx int64
	// NetErr counts transport failures (connection refused, timeout).
	NetErr int64
	// Hist holds successful-response latencies.
	Hist *Hist
}

// Result is one load run's outcome.
type Result struct {
	Elapsed time.Duration
	// Classes, sorted by class name.
	Classes []*ClassStats
}

// Class returns the stats for a class label, or nil.
func (r *Result) Class(name string) *ClassStats {
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	return nil
}

// TotalSent sums attempts across classes.
func (r *Result) TotalSent() int64 {
	var n int64
	for _, c := range r.Classes {
		n += c.Sent
	}
	return n
}

// Throughput reports completed requests (any outcome) per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalSent()) / r.Elapsed.Seconds()
}

// Run drives the load described by spec until the duration elapses or
// ctx ends, whichever is first. Per-worker stats merge at the end, so
// the hot path takes no shared locks beyond the pacer channel.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if len(spec.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if len(spec.Ops) == 0 {
		return nil, fmt.Errorf("loadgen: no ops")
	}
	workers := spec.Concurrency
	if workers <= 0 {
		workers = 16
	}
	duration := spec.Duration
	if duration <= 0 {
		duration = 5 * time.Second
	}
	timeout := spec.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	// One expanded schedule of ops honoring weights, walked round-robin
	// by a shared counter so the mix holds at any worker count.
	var schedule []int
	for i, op := range spec.Ops {
		w := op.Weight
		if w <= 0 {
			w = 1
		}
		for j := 0; j < w; j++ {
			schedule = append(schedule, i)
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	// Open loop: a pacer goroutine drops tokens at the target rate;
	// workers block for a token before each request. Closed loop: a
	// nil pacer channel (never blocks).
	var pacer chan struct{}
	if spec.RPS > 0 {
		pacer = make(chan struct{}, workers)
		// The pacer follows an absolute arrival schedule rather than a
		// ticker: at >1k req/s the inter-arrival gap is sub-millisecond
		// and a ticker silently coalesces missed ticks, capping the
		// delivered rate below the target. Emitting every arrival due
		// since the start keeps the long-run rate exact regardless of
		// scheduler jitter.
		go func() {
			begin := time.Now()
			var issued int64
			for {
				due := int64(time.Since(begin).Seconds() * spec.RPS)
				for ; issued < due; issued++ {
					select {
					case pacer <- struct{}{}:
					default: // workers are saturated; drop the arrival
					}
				}
				next := begin.Add(time.Duration(float64(issued+1) / spec.RPS * float64(time.Second)))
				t := time.NewTimer(time.Until(next))
				select {
				case <-runCtx.Done():
					t.Stop()
					return
				case <-t.C:
				}
			}
		}()
	}

	client := &http.Client{Timeout: timeout}
	perWorker := make([]map[string]*ClassStats, workers)
	var seq counter
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			stats := map[string]*ClassStats{}
			perWorker[w] = stats
			for {
				if runCtx.Err() != nil {
					return
				}
				if pacer != nil {
					select {
					case <-pacer:
					case <-runCtx.Done():
						return
					}
				}
				n := seq.next()
				op := &spec.Ops[schedule[int(n)%len(schedule)]]
				target := spec.Targets[int(n)%len(spec.Targets)]
				st := stats[op.Class]
				if st == nil {
					st = &ClassStats{Class: op.Class, Hist: NewHist()}
					stats[op.Class] = st
				}
				fire(runCtx, client, target, op, st)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := map[string]*ClassStats{}
	for _, stats := range perWorker {
		if stats == nil {
			continue
		}
		// Merge into name-keyed aggregates; output order is sorted
		// below, not map order.
		for class, st := range stats {
			m := merged[class]
			if m == nil {
				m = &ClassStats{Class: class, Hist: NewHist()}
				merged[class] = m
			}
			m.Sent += st.Sent
			m.OK += st.OK
			m.RateLimited += st.RateLimited
			m.Shed += st.Shed
			m.Err5xx += st.Err5xx
			m.Err4xx += st.Err4xx
			m.NetErr += st.NetErr
			m.Hist.Merge(st.Hist)
		}
	}
	res := &Result{Elapsed: elapsed}
	for _, m := range merged {
		res.Classes = append(res.Classes, m)
	}
	sort.Slice(res.Classes, func(i, j int) bool { return res.Classes[i].Class < res.Classes[j].Class })
	return res, nil
}

// fire sends one request and records its outcome.
func fire(ctx context.Context, client *http.Client, target string, op *Op, st *ClassStats) {
	req, err := http.NewRequestWithContext(ctx, op.Method, target+op.Path, bytes.NewReader(op.Body))
	if err != nil {
		st.Sent++
		st.NetErr++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // run ended mid-request; not an outcome
		}
		st.Sent++
		st.NetErr++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st.Sent++
	switch {
	case resp.StatusCode < 300:
		st.OK++
		st.Hist.Observe(time.Since(start))
	case resp.StatusCode == http.StatusTooManyRequests:
		st.RateLimited++
	case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		st.Shed++
	case resp.StatusCode >= 500:
		st.Err5xx++
	default:
		st.Err4xx++
	}
}

// counter is a shared atomic sequence.
type counter struct{ n atomic.Int64 }

func (c *counter) next() int64 { return c.n.Add(1) - 1 }
