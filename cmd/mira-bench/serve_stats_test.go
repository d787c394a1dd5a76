package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mira/internal/engine"
	"mira/internal/obs"
)

// TestPrintServeStats scrapes a live registry through HTTP — the same
// exposition path mira-serve uses — and checks the digest renders.
func TestPrintServeStats(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Obs: reg})
	if _, err := eng.AnalyzeCtx(context.Background(), "k.c", "double f() { return 1.0; }"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		_ = reg.WriteOpenMetrics(w)
	}))
	defer ts.Close()

	var sb strings.Builder
	if err := printServeStats(&sb, ts.URL+"/"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"live pipeline cache", "analyze latency", "mira_pipeline_cache_misses_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("digest missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "0.0% (0 hits / 1 misses)") {
		t.Errorf("expected one pipeline miss in digest:\n%s", out)
	}

	// A non-exposition payload must fail the lint, not print garbage.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<html>not metrics</html>"))
	}))
	defer bad.Close()
	if err := printServeStats(&sb, bad.URL); err == nil {
		t.Error("non-OpenMetrics payload accepted")
	}
}
