package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mira/internal/engine"
	"mira/internal/obs"
	"mira/internal/parser"
)

// queryBody builds the acceptance batch: every kind at least once,
// several env points, one bad function, one bad kind — 12 cells against
// one artifact in one round trip.
func acceptanceQueries() []map[string]any {
	var qs []map[string]any
	for _, n := range []int64{10, 100, 1000} {
		qs = append(qs, map[string]any{"fn": "kernel", "env": map[string]int64{"n": n}, "kind": "static"})
	}
	qs = append(qs,
		map[string]any{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "static_exclusive"},
		map[string]any{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "categories"},
		map[string]any{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "fine_categories"},
		map[string]any{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "roofline"},
		map[string]any{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "roofline", "arch": "arya"},
		map[string]any{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "pbound"},
		map[string]any{"fn": "kernel", "env": map[string]int64{"n": 25}, "kind": "pbound"},
		map[string]any{"fn": "nosuchfn", "env": map[string]int64{"n": 10}, "kind": "static"},
		map[string]any{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "bogus_kind"},
	)
	return qs
}

// TestQueryBatchSingleRoundTrip is the acceptance scenario: a 12-query
// batch — every kind, roofline and pbound included — evaluated against
// one cached artifact in a single POST, with per-query errors.
func TestQueryBatchSingleRoundTrip(t *testing.T) {
	h := newTestServer(t, "")
	w := postJSON(t, h, "/query", map[string]any{
		"name": "kernel.c", "source": kernelSrc,
		"queries": acceptanceQueries(),
	})
	if w.Code != 200 {
		t.Fatalf("query status %d: %s", w.Code, w.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key == "" {
		t.Error("response missing key")
	}
	if len(resp.Results) != 12 {
		t.Fatalf("got %d results, want 12", len(resp.Results))
	}
	// The three static sweeps: FPI = 2n (add + mul per iteration).
	for i, n := range []int64{10, 100, 1000} {
		r := resp.Results[i]
		if r.Error != "" || r.Metrics == nil || r.Metrics.FPI != 2*n {
			t.Errorf("static n=%d: %+v (err %q)", n, r.Metrics, r.Error)
		}
	}
	if r := resp.Results[4]; r.Error != "" || len(r.Categories) == 0 {
		t.Errorf("categories: %+v", r)
	}
	if r := resp.Results[5]; r.Error != "" || len(r.Categories) == 0 {
		t.Errorf("fine categories: %+v", r)
	}
	if r := resp.Results[6]; r.Error != "" || r.Roofline == nil || r.Roofline.InstrAI <= 0 {
		t.Errorf("roofline: %+v (err %q)", r.Roofline, r.Error)
	}
	if a, b := resp.Results[6], resp.Results[7]; a.Error != "" || b.Error != "" ||
		a.Roofline.RidgeAI == b.Roofline.RidgeAI {
		t.Errorf("arch override had no effect: %+v vs %+v", a.Roofline, b.Roofline)
	}
	if r := resp.Results[8]; r.Error != "" || r.PBound == nil || r.PBound.Flops <= 0 {
		t.Errorf("pbound: %+v (err %q)", r.PBound, r.Error)
	}
	if a, b := resp.Results[8], resp.Results[9]; a.Error == "" && b.Error == "" &&
		b.PBound.Flops <= a.PBound.Flops {
		t.Errorf("pbound not monotone in n: %+v vs %+v", a.PBound, b.PBound)
	}
	// Per-query errors: the bad cells fail alone.
	if r := resp.Results[10]; r.Error == "" || !strings.Contains(r.Error, "nosuchfn") {
		t.Errorf("bad fn error = %q", r.Error)
	}
	if r := resp.Results[11]; r.Error == "" || !strings.Contains(r.Error, "bogus_kind") {
		t.Errorf("bad kind error = %q", r.Error)
	}
}

// TestQueryByKey: analyze once, then batch-query the cached artifact by
// key without resending source.
func TestQueryByKey(t *testing.T) {
	h := newTestServer(t, "")
	w := postJSON(t, h, "/analyze", map[string]any{"name": "kernel.c", "source": kernelSrc})
	if w.Code != 200 {
		t.Fatalf("analyze: %d", w.Code)
	}
	var ar analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, h, "/query", map[string]any{
		"key": ar.Key,
		"queries": []map[string]any{
			{"fn": "kernel", "env": map[string]int64{"n": 7}, "kind": "static"},
		},
	})
	if w.Code != 200 {
		t.Fatalf("query by key: %d: %s", w.Code, w.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key != ar.Key || len(resp.Results) != 1 || resp.Results[0].Metrics.FPI != 14 {
		t.Errorf("response: %+v", resp)
	}
}

// TestQueryValidation: malformed requests get 4xx without touching the
// engine.
func TestQueryValidation(t *testing.T) {
	h := newTestServer(t, "")
	cases := []struct {
		body map[string]any
		want int
	}{
		{map[string]any{"source": kernelSrc}, http.StatusBadRequest},                                             // no queries
		{map[string]any{"queries": []map[string]any{{"fn": "kernel", "kind": "static"}}}, http.StatusBadRequest}, // no source/key
		{map[string]any{"key": strings.Repeat("ab", 32), "queries": []map[string]any{{"fn": "kernel", "kind": "static"}}}, http.StatusNotFound},
	}
	for i, c := range cases {
		if w := postJSON(t, h, "/query", c.body); w.Code != c.want {
			t.Errorf("case %d: status %d, want %d: %s", i, w.Code, c.want, w.Body)
		}
	}
	// Oversized batches are refused outright.
	big := make([]map[string]any, maxQueriesPerRequest+1)
	for i := range big {
		big[i] = map[string]any{"fn": "kernel", "kind": "static"}
	}
	if w := postJSON(t, h, "/query", map[string]any{"source": kernelSrc, "queries": big}); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize batch: status %d, want 413", w.Code)
	}
}

// TestQueryCancelledRequestAborts: a request whose context has ended
// (client hung up) must not evaluate anything — the batch is abandoned
// before a single model walk.
func TestQueryCancelledRequestAborts(t *testing.T) {
	reg := obs.NewRegistry()
	h, _ := newTestServerWithRegistry(t, reg)

	// Warm the artifact with a live request first.
	w := postJSON(t, h, "/analyze", map[string]any{"name": "kernel.c", "source": kernelSrc})
	if w.Code != 200 {
		t.Fatalf("analyze: %d", w.Code)
	}
	var ar analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}

	var queries []map[string]any
	for n := int64(1); n <= 50; n++ {
		queries = append(queries, map[string]any{"fn": "kernel", "env": map[string]int64{"n": n}, "kind": "static"})
	}
	raw, err := json.Marshal(map[string]any{"key": ar.Key, "queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/query", strings.NewReader(string(raw))).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Body.Len() != 0 {
		t.Errorf("cancelled request still wrote a body: %s", rec.Body)
	}
	exp, err := obs.Parse(scrapeMetrics(t, h))
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Value("mira_eval_memo_misses_total"); got != 0 {
		t.Errorf("cancelled batch still evaluated %v cells", got)
	}
}

// TestStatusForCancellation: a cancellation inherited from a shared
// singleflight slot is a retryable 503, never a 4xx that blames a
// client whose own input and connection were fine.
func TestStatusForCancellation(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{context.Canceled, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusServiceUnavailable},
		{fmt.Errorf("identical content to a.c: %w", context.Canceled), http.StatusServiceUnavailable},
		{fmt.Errorf("engine: analysis %w: boom", engine.ErrPanicked), http.StatusBadRequest},
		{fmt.Errorf("core: parse: %w", &parser.Error{Msg: "nesting deeper than 4096 levels"}), http.StatusBadRequest},
		{fmt.Errorf("model: no function %q", "f"), http.StatusUnprocessableEntity},
		{fmt.Errorf("model: no function %q", "panicked"), http.StatusUnprocessableEntity},
	}
	for i, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("case %d (%v): status %d, want %d", i, c.err, got, c.want)
		}
	}
}

// newTestServerWithRegistry is newTestServer with the registry exposed
// for counter assertions.
func newTestServerWithRegistry(t *testing.T, reg *obs.Registry) (http.Handler, *obs.Registry) {
	t.Helper()
	eng := engine.New(engine.Options{Obs: reg})
	return newServer(eng, reg, testSuites(), nil, AdmissionOptions{}, RateLimiterOptions{}), reg
}

func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	w := get(h, "/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	return w.Body.String()
}

// TestServeDrainsInFlightRequests: the shutdown path stops accepting but
// lets an in-flight response finish — the drain satellite, end to end on
// a real listener.
func TestServeDrainsInFlightRequests(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "drained ok")
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- serveUntilDone(ctx, srv, ln, 10*time.Second, nil) }()

	respCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			errCh <- err
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		respCh <- string(b)
	}()

	<-started // the request is in flight
	cancel()  // "SIGTERM"
	release <- struct{}{}

	select {
	case body := <-respCh:
		if body != "drained ok" {
			t.Errorf("in-flight response = %q", body)
		}
	case err := <-errCh:
		t.Fatalf("in-flight request died during shutdown: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serveUntilDone: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never exited after drain")
	}
}
