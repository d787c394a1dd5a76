package main

// Serve-layer benchmarks: one warm request through newServer's handler,
// from the request bytes to the encoded response. Evaluation is the
// compiled model (sweeps) or the eval memo (queries), so what varies
// between revisions is the HTTP layer and the response encoding.
// BenchmarkFrontDoor times the front door's gates alone.
//
//	go test -run xxx -bench 'BenchmarkServe' -benchmem ./cmd/mira-serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/obs"
)

// benchKey analyzes src once and returns its content key.
func benchKey(b *testing.B, h http.Handler, name, src string) string {
	b.Helper()
	raw, _ := json.Marshal(map[string]string{"name": name, "source": src})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/analyze", bytes.NewReader(raw)))
	var resp analyzeResponse
	if w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
		b.Fatalf("analyze %s: %d %s", name, w.Code, w.Body)
	}
	return resp.Key
}

// benchServe posts body to path b.N times (plus one untimed warm-up
// request) and reports the response size.
func benchServe(b *testing.B, h http.Handler, path string, body map[string]any) {
	b.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
		if w.Code != 200 {
			b.Fatalf("%s: %d %s", path, w.Code, w.Body)
		}
		return w
	}
	size := serve().Body.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
	b.ReportMetric(float64(size)/1024, "resp-KiB")
}

// benchAxis is n consecutive sizes from start.
func benchAxis(name string, start int64, n int) map[string]any {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = start + int64(i)
	}
	return map[string]any{"name": name, "values": vals}
}

// BenchmarkServeSweep is perfbench's sweep shape on DGEMM: a 4096-point
// static grid, and a 1024-point roofline grid on four architectures.
func BenchmarkServeSweep(b *testing.B) {
	h := newTestServer(b, "")
	key := benchKey(b, h, "dgemm.c", benchprogs.Dgemm)
	b.Run("static", func(b *testing.B) {
		benchServe(b, h, "/sweep", map[string]any{
			"key": key, "fn": "dgemm_bench", "kind": "static",
			"axes": []map[string]any{benchAxis("n", 100, 64), benchAxis("nrep", 1, 64)},
		})
	})
	b.Run("roofline", func(b *testing.B) {
		benchServe(b, h, "/sweep", map[string]any{
			"key": key, "fn": "dgemm_bench", "kind": "roofline",
			"axes":  []map[string]any{benchAxis("n", 100, 32), benchAxis("nrep", 1, 32)},
			"archs": []string{"skylake", "zen2", "graviton3", "icelake"},
		})
	})
}

// BenchmarkServeQuery is a warm /query batch: every STREAM function at
// one size point, in four kinds.
func BenchmarkServeQuery(b *testing.B) {
	h := newTestServer(b, "")
	key := benchKey(b, h, "stream.c", benchprogs.Stream)
	var queries []map[string]any
	for _, fn := range []string{"tuned_copy", "tuned_scale", "tuned_add", "tuned_triad", "stream"} {
		for _, kind := range []string{"static", "categories", "roofline", "pbound"} {
			queries = append(queries, map[string]any{"fn": fn, "env": map[string]int64{"n": 100000}, "kind": kind})
		}
	}
	benchServe(b, h, "/query", map[string]any{"key": key, "queries": queries})
}

// BenchmarkFrontDoor: the rate-limit and admission decision every
// request pays before reaching a handler, with the limiter on.
func BenchmarkFrontDoor(b *testing.B) {
	reg := obs.NewRegistry()
	limiter := newRateLimiter(RateLimiterOptions{Rate: 1e9, Burst: 1e9}, reg, nil)
	admission := newAdmission(AdmissionOptions{}, reg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !limiter.Allow("bench-client") {
			b.Fatal("limiter refused")
		}
		release, ok := admission.Admit(ClassInteractive)
		if !ok {
			b.Fatal("admission shed")
		}
		release()
	}
}
