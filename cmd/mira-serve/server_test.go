package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mira/internal/cachestore"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/experiments"
	"mira/internal/obs"
	"mira/internal/report"
)

const kernelSrc = `
double kernel(double *x, int n) {
	double s; int i;
	s = 0.0;
	for (i = 0; i < n; i++) {
		s = s + x[i] * 2.0;
	}
	return s;
}`

// newTestServer builds a handler over a fresh engine; cacheDir == ""
// means memory-only.
func newTestServer(t testing.TB, cacheDir string) http.Handler {
	t.Helper()
	var store engine.CacheStore
	if cacheDir != "" {
		d, err := cachestore.Open(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		store = d
	}
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Core: core.Options{}, Store: store, Obs: reg})
	return newServer(eng, reg, testSuites(), nil, AdmissionOptions{}, RateLimiterOptions{})
}

// testSuites are the named paper suites at sizes small enough for unit
// tests (the VM-validated columns run in milliseconds).
func testSuites() map[string]report.Suite {
	cfg := experiments.ScaledConfig()
	cfg.StreamSizes = []int64{1000, 2000}
	cfg.DgemmSizes = []int64{8, 12}
	cfg.Fig7Stream = []int64{1000, 2000}
	cfg.Fig7Dgemm = []int64{8, 12}
	cfg.AblationSizes = []int64{64, 256}
	small := experiments.MiniFESizes{NX: 5, NY: 5, NZ: 5, MaxIter: 4, NnzRowAnnotation: 18}
	large := experiments.MiniFESizes{NX: 6, NY: 6, NZ: 6, MaxIter: 4, NnzRowAnnotation: 19}
	cfg.MiniSmall, cfg.MiniLarge = small, large
	return experiments.SuiteMap(cfg)
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// query posts one /query batch and decodes the 200 response.
func query(t *testing.T, h http.Handler, body map[string]any) queryResponse {
	t.Helper()
	w := postJSON(t, h, "/query", body)
	if w.Code != 200 {
		t.Fatalf("query status %d: %s", w.Code, w.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := len(body["queries"].([]map[string]any)); len(resp.Results) != want {
		t.Fatalf("got %d results for %d queries", len(resp.Results), want)
	}
	return resp
}

func TestAnalyzeAndEvalFlow(t *testing.T) {
	h := newTestServer(t, "")

	w := postJSON(t, h, "/analyze", map[string]any{"name": "kernel.c", "source": kernelSrc})
	if w.Code != 200 {
		t.Fatalf("analyze status %d: %s", w.Code, w.Body)
	}
	var ar analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Key == "" || len(ar.Functions) != 1 || ar.Functions[0].Name != "kernel" {
		t.Fatalf("analyze response %+v", ar)
	}

	// Evaluate by key — no source resend.
	resp := query(t, h, map[string]any{"key": ar.Key, "queries": []map[string]any{
		{"fn": "kernel", "env": map[string]int64{"n": 1000}, "kind": "static"},
		{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "static"},
		{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "categories"},
		{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "fine_categories"},
	}})
	if r := resp.Results[0]; r.Error != "" || r.Metrics == nil || r.Metrics.FPI != 2000 {
		t.Fatalf("n=1000: %+v (err %q), want FPI 2000 (add + mul per iteration)", r.Metrics, r.Error)
	}
	if r := resp.Results[1]; r.Error != "" || r.Metrics == nil || r.Metrics.FPI != 20 {
		t.Errorf("n=10: %+v (err %q), want FPI 20", r.Metrics, r.Error)
	}
	if len(resp.Results[2].Categories) == 0 || len(resp.Results[3].Categories) == 0 {
		t.Errorf("missing category tables: %+v", resp.Results[2:])
	}

	// Evaluate by source (cache hit on identical text).
	resp = query(t, h, map[string]any{"source": kernelSrc, "queries": []map[string]any{
		{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "static_exclusive"},
	}})
	if r := resp.Results[0]; resp.Key != ar.Key || r.Error != "" || r.Metrics == nil {
		t.Errorf("static_exclusive by source: key %s, cell %+v", resp.Key, r)
	}

	// Unknown key is a 404.
	if w := postJSON(t, h, "/query", map[string]any{
		"key":     strings.Repeat("ee", 32),
		"queries": []map[string]any{{"fn": "kernel", "kind": "static"}},
	}); w.Code != http.StatusNotFound {
		t.Errorf("unknown key status %d", w.Code)
	}
}

// TestHostileRequestsGet4xxNotACrash sends every malformed and hostile
// shape at a resident server and checks each is answered with a 4xx (or,
// for a bad cell in a well-formed batch, a per-cell error) and the daemon
// keeps serving afterwards.
func TestHostileRequestsGet4xxNotACrash(t *testing.T) {
	h := newTestServer(t, "")
	hostile := []struct {
		path string
		body string
	}{
		{"/analyze", `{not json`},
		{"/analyze", `{"source":""}`},
		{"/analyze", `{"source":"int f( {"}`},
		{"/analyze", `{"source":"double f(double *x, int n) { double s; int i; s = 0.0; for (i = 0; i < n; i = i + 0) { s = s + x[i]; } return s; }"}`},
		{"/query", `{"queries":[{"fn":"kernel","kind":"static"}]}`},
		{"/sweep", `{"source":` + mustQuote(kernelSrc) + `,"fn":"nosuchfunction","points":[{"n":5}]}`},
	}
	for i, c := range hostile {
		req := httptest.NewRequest("POST", c.path, strings.NewReader(c.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code < 400 || w.Code >= 500 {
			t.Errorf("hostile %d (%s %s): status %d, want 4xx; body %s", i, c.path, c.body, w.Code, w.Body)
		}
	}
	cells := []struct {
		source string
		cell   map[string]any
	}{
		{kernelSrc, map[string]any{"fn": "nosuchfunction", "env": map[string]int64{"n": 5}, "kind": "static"}},
		{kernelSrc, map[string]any{"fn": "kernel", "kind": "static"}}, // n unbound
		{sumBombSrc, map[string]any{"fn": "f", "env": map[string]int64{"n": 2000000000}, "kind": "static"}},
	}
	for i, c := range cells {
		resp := query(t, h, map[string]any{"source": c.source, "queries": []map[string]any{c.cell}})
		if resp.Results[0].Error == "" {
			t.Errorf("hostile cell %d (%v): no per-cell error: %+v", i, c.cell, resp.Results[0])
		}
	}
	// The daemon must still be healthy and able to do real work.
	if w := get(h, "/livez"); w.Code != 200 {
		t.Fatalf("livez after hostile traffic: %d", w.Code)
	}
	resp := query(t, h, map[string]any{"source": kernelSrc, "queries": []map[string]any{
		{"fn": "kernel", "env": map[string]int64{"n": 4}, "kind": "static"},
	}})
	if r := resp.Results[0]; r.Error != "" || r.Metrics == nil || r.Metrics.FPI != 8 {
		t.Fatalf("server wedged after hostile traffic: %+v", r)
	}
}

// TestDeepSourceIs400 posts /analyze bodies up to the 4 MiB limit whose
// source nests past the parser's bounds: without them each would grow a
// goroutine stack past Go's 1 GB limit in a later stage, a fatal error
// that takes the whole daemon down. Each must be a positioned 400, and
// the daemon must keep serving.
func TestDeepSourceIs400(t *testing.T) {
	h := newTestServer(t, "")
	levels := (maxRequestBytes - 64) / 2
	sources := map[string]string{
		"parentheses": "int f(int n) { return " + strings.Repeat("(", levels) + "n" + strings.Repeat(")", levels) + "; }",
		"chain":       "int f(int n) { return n" + strings.Repeat("+n", 2_000_000-1) + "; }",
		"blocks":      "int f(int n) { " + strings.Repeat("{", levels) + strings.Repeat("}", levels) + " return n; }",
	}
	for name, src := range sources {
		body := `{"source":"` + src + `"}`
		if len(body) > maxRequestBytes {
			t.Fatalf("%s: body of %d bytes is over the request limit", name, len(body))
		}
		req := httptest.NewRequest("POST", "/analyze", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "deeper than") {
			t.Errorf("%s (%d bytes): status %d, want 400 with a depth error; body %.200s", name, len(body), w.Code, w.Body)
		}
	}
	for _, path := range []string{"/livez", "/readyz"} {
		if w := get(h, path); w.Code != 200 {
			t.Fatalf("%s after deep sources: %d", path, w.Code)
		}
	}
	resp := query(t, h, map[string]any{"source": kernelSrc, "queries": []map[string]any{
		{"fn": "kernel", "env": map[string]int64{"n": 4}, "kind": "static"},
	}})
	if r := resp.Results[0]; r.Error != "" || r.Metrics == nil || r.Metrics.FPI != 8 {
		t.Fatalf("server wedged after deep sources: %+v", r)
	}
}

// sumBombSrc has a triangular loop nest whose closed form falls back to
// summation enumeration at evaluation time for huge n — the eval-path
// resource guard must refuse it, not spin or die.
const sumBombSrc = `
double f(double *x, int n) {
	double s; int i; int j;
	s = 0.0;
	for (i = 0; i < n; i++) {
		for (j = i; j < n; j = j + 7) {
			s = s + x[j];
		}
	}
	return s;
}`

func mustQuote(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestPanicInsideHandlerIsContained exercises the last-resort recover
// middleware with a handler-level panic (the engine-level guards are
// tested in internal/engine).
func TestPanicInsideHandlerIsContained(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Obs: reg})
	s := &server{eng: eng, reg: reg,
		reqAnalyze: reg.Counter("a", ""),
		reqErrors:  reg.Counter("c", ""), httpLat: reg.Summary("d", "")}
	h := s.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/boom", nil))
	if w.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", w.Code)
	}
	if s.reqErrors.Value() != 1 {
		t.Errorf("error counter = %d", s.reqErrors.Value())
	}
}

// TestMetricsOpenMetricsLint is the hermetic exposition check the CI
// gate runs: a live /metrics scrape must parse under the strict
// OpenMetrics linter after real traffic.
func TestMetricsOpenMetricsLint(t *testing.T) {
	h := newTestServer(t, "")
	postJSON(t, h, "/analyze", map[string]any{"source": kernelSrc})
	for range 2 {
		query(t, h, map[string]any{"source": kernelSrc, "queries": []map[string]any{
			{"fn": "kernel", "env": map[string]int64{"n": 3}, "kind": "static"},
		}})
	}

	w := get(h, "/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("content type %q", ct)
	}
	text, err := io.ReadAll(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.Parse(string(text))
	if err != nil {
		t.Fatalf("/metrics fails OpenMetrics lint: %v\n----\n%s", err, text)
	}
	for _, name := range []string{
		"mira_pipeline_cache_hits_total", "mira_pipeline_cache_misses_total",
		"mira_store_hits_total", "mira_eval_memo_hits_total",
		"mira_analyze_seconds_count", "mira_http_analyze_requests_total",
		"mira_analyses_inflight", "mira_eval_memo_entries",
		"mira_admission_interactive_admitted_total",
	} {
		if _, ok := exp.Samples[name]; !ok {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if exp.Value("mira_eval_memo_hits_total") == 0 {
		t.Error("repeated query did not hit the memo")
	}
	if exp.Value("mira_http_query_requests_total") != 2 {
		t.Errorf("query request counter = %v, want 2", exp.Value("mira_http_query_requests_total"))
	}
	// Every daemon's front door admits: one /analyze and two /query.
	if got := exp.Value("mira_admission_interactive_admitted_total"); got != 3 {
		t.Errorf("interactive admissions = %v, want 3", got)
	}
}

// TestWarmRestartServesFromDiskCache is the acceptance scenario: a
// second mira-serve process over the same cache directory must serve a
// known program from the stored per-function units — one store hit per
// function visible at /metrics, zero functions recompiled.
func TestWarmRestartServesFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	src := kernelSrc + `
double twice(double *x, int n) {
	return kernel(x, n) + kernel(x, n);
}`

	first := newTestServer(t, dir)
	w := postJSON(t, first, "/analyze", map[string]any{"name": "kernel.c", "source": src})
	if w.Code != 200 {
		t.Fatalf("first process analyze: %d: %s", w.Code, w.Body)
	}
	var cold analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cold); err != nil {
		t.Fatal(err)
	}

	// "Restart": an entirely new engine + handler over the same dir.
	second := newTestServer(t, dir)
	warm := query(t, second, map[string]any{"source": src, "queries": []map[string]any{
		{"fn": "kernel", "env": map[string]int64{"n": 1000}, "kind": "static"},
	}})
	if warm.Key != cold.Key {
		t.Errorf("content key changed across restart: %s vs %s", warm.Key, cold.Key)
	}
	if r := warm.Results[0]; r.Error != "" || r.Metrics == nil || r.Metrics.FPI != 2000 {
		t.Errorf("warm cell %+v (err %q), want FPI 2000", r.Metrics, r.Error)
	}

	exp, err := obs.Parse(get(second, "/metrics").Body.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Functions) != 2 {
		t.Fatalf("first process analyzed %d functions, want 2", len(cold.Functions))
	}
	if got := exp.Value("mira_store_hits_total"); got != 2 {
		t.Errorf("warm process store hits = %v, want 2 (one per function)", got)
	}
	if got := exp.Value("mira_store_misses_total"); got != 0 {
		t.Errorf("warm process store misses = %v, want 0", got)
	}
	if got := exp.Value("mira_incremental_misses_total"); got != 0 {
		t.Errorf("warm process recompiled %v functions, want 0 (disk cache should serve them)", got)
	}
}

func TestLivez(t *testing.T) {
	h := newTestServer(t, "")
	w := get(h, "/livez")
	if w.Code != 200 {
		t.Fatalf("livez %d", w.Code)
	}
	var hr map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr["status"] != "ok" {
		t.Errorf("livez body %v", hr)
	}
	if _, ok := hr["uptime_seconds"].(float64); !ok {
		t.Errorf("livez missing uptime_seconds: %v", hr)
	}
	if w := get(h, "/healthz"); w.Code != http.StatusNotFound {
		t.Errorf("retired /healthz answered %d, want 404", w.Code)
	}
}

// TestMethodRouting rejects wrong verbs, and the retired POST /eval.
func TestMethodRouting(t *testing.T) {
	h := newTestServer(t, "")
	for _, c := range []struct{ method, path string }{
		{"GET", "/analyze"}, {"GET", "/eval"}, {"POST", "/metrics"}, {"DELETE", "/livez"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader("{}")))
		if w.Code != http.StatusMethodNotAllowed && w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d", c.method, c.path, w.Code)
		}
	}
	if w := postJSON(t, h, "/eval", map[string]any{"source": kernelSrc, "fn": "kernel"}); w.Code != http.StatusNotFound {
		t.Errorf("retired POST /eval answered %d, want 404", w.Code)
	}
}

// TestOversizeBodyRejected bounds request bodies.
func TestOversizeBodyRejected(t *testing.T) {
	h := newTestServer(t, "")
	big := fmt.Sprintf(`{"source":%q}`, strings.Repeat("x", maxRequestBytes+10))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/analyze", strings.NewReader(big)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", w.Code)
	}
}

// TestBodyLengthHeader checks readBody against the Content-Length it
// sizes its buffer from: a declared length past the bound and a body
// that runs past its declared length both get 413 (the first without the
// body being read), a body shorter than declared gets 400, and a chunked
// body with no declared length is read up to the bound as before.
func TestBodyLengthHeader(t *testing.T) {
	h := newTestServer(t, "")
	valid := fmt.Sprintf(`{"source":%q}`, "double f(double a) { return a * 2.0; }")
	cases := []struct {
		name     string
		body     io.Reader
		declared int64
		want     int
	}{
		{"exact", strings.NewReader(valid), int64(len(valid)), http.StatusOK},
		{"declared past the bound", failReader{}, maxRequestBytes + 1, http.StatusRequestEntityTooLarge},
		{"runs past its declared length", strings.NewReader(valid + " "), int64(len(valid)), http.StatusRequestEntityTooLarge},
		{"shorter than declared", strings.NewReader(valid), int64(len(valid)) + 5, http.StatusBadRequest},
		{"no declared length", strings.NewReader(valid), -1, http.StatusOK},
		{"no declared length, oversized", strings.NewReader(strings.Repeat(" ", maxRequestBytes+1)), -1, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", "/analyze", c.body)
		req.ContentLength = c.declared
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body.String())
		}
	}
}

// failReader fails the test's request if its body is ever read.
type failReader struct{}

func (failReader) Read([]byte) (int, error) {
	return 0, errors.New("body read although its declared length was refused")
}
