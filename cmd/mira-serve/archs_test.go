package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/obs"
)

// testboxJSON is a custom machine description as an operator would drop
// it into -arch-dir: peak 10 GFLOP/s (1 core, 1 GHz, scalar, 10
// flops/cycle) against 1 GB/s of bandwidth, so ridge AI = 10 — numbers
// no builtin shares, making any cross-contamination visible.
const testboxJSON = `{
	"name": "testbox",
	"cores": 1,
	"clock_ghz": 1.0,
	"cache_line_bytes": 64,
	"vector_width_doubles": 1,
	"peak_flops_per_cycle_per_core": 10,
	"mem_bandwidth_gbs": 1,
	"has_fp_counters": true
}`

// newArchDirServer builds a handler the way run() does with -arch-dir:
// a registry extended from a description directory, injected into the
// engine the server fronts.
func newArchDirServer(t *testing.T, dir string) http.Handler {
	t.Helper()
	registry := arch.NewRegistry()
	if _, err := registry.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Core: core.Options{}, Obs: reg, Registry: registry})
	return newServer(eng, reg, testSuites(), nil, AdmissionOptions{}, RateLimiterOptions{})
}

// TestArchDirEndToEnd is the acceptance path for custom architectures:
// a description dropped into -arch-dir shows up in GET /archs with a
// content key and is usable by name in POST /query and POST /report.
func TestArchDirEndToEnd(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "testbox.json"), []byte(testboxJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	h := newArchDirServer(t, dir)

	// GET /archs lists the custom machine alongside every builtin, each
	// with a 64-hex content key.
	w := get(h, "/archs")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /archs: %d %s", w.Code, w.Body)
	}
	var archs archsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &archs); err != nil {
		t.Fatal(err)
	}
	if len(archs.Archs) != arch.NewRegistry().Len()+1 {
		t.Fatalf("GET /archs listed %d entries", len(archs.Archs))
	}
	found := false
	for _, e := range archs.Archs {
		if len(e.Key) != 64 {
			t.Errorf("arch %s: content key %q is not a sha256 hex digest", e.Name, e.Key)
		}
		if e.Name == "testbox" {
			found = true
			if e.Desc == nil || e.Desc.MemBandwidthGBs != 1 {
				t.Errorf("testbox description not served back: %+v", e.Desc)
			}
		}
	}
	if !found {
		t.Fatal("custom description missing from GET /archs")
	}

	// POST /query resolves the custom machine by name: the roofline's
	// ridge AI is peak/bandwidth = 10, a value no builtin produces.
	w = postJSON(t, h, "/query", map[string]any{
		"name":   "k.c",
		"source": kernelSrc,
		"queries": []map[string]any{
			{"fn": "kernel", "env": map[string]int64{"n": 1024}, "kind": "roofline", "arch": "testbox"},
		},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("POST /query: %d %s", w.Code, w.Body)
	}
	var qr struct {
		Results []struct {
			Error    string `json:"error"`
			Roofline *struct {
				RidgeAI float64 `json:"ridge_ai"`
			} `json:"roofline"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 1 || qr.Results[0].Error != "" || qr.Results[0].Roofline == nil {
		t.Fatalf("query results: %s", w.Body)
	}
	if got := qr.Results[0].Roofline.RidgeAI; got != 10 {
		t.Errorf("testbox ridge AI = %v, want 10", got)
	}

	// POST /report ranks the custom machine through an inline compare
	// spec: testbox's 10 GFLOP/s peak loses to generic's 64.
	w = postJSON(t, h, "/report", map[string]any{
		"spec": map[string]any{
			"name": "custom",
			"sections": []map[string]any{{
				"workload": "dgemm",
				"fn":       "dgemm_bench",
				"compare":  true,
				"base":     map[string]int64{"n": 12, "nrep": 1},
				"archs":    []string{"testbox", "generic"},
			}},
		},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("POST /report: %d %s", w.Code, w.Body)
	}
	var rep struct {
		Tables []struct {
			Rows []struct {
				Cells []any  `json:"cells"`
				Error string `json:"error,omitempty"`
			} `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 2 {
		t.Fatalf("report shape: %s", w.Body)
	}
	order := fmt.Sprintf("%v,%v", rep.Tables[0].Rows[0].Cells[1], rep.Tables[0].Rows[1].Cells[1])
	if order != "generic,testbox" {
		t.Errorf("compare ranking = %s, want generic,testbox", order)
	}

	// An unregistered name still fails cleanly.
	w = postJSON(t, h, "/query", map[string]any{
		"name":   "k.c",
		"source": kernelSrc,
		"queries": []map[string]any{
			{"fn": "kernel", "env": map[string]int64{"n": 16}, "kind": "roofline", "arch": "vax"},
		},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("POST /query: %d %s", w.Code, w.Body)
	}
	var qe struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &qe); err != nil {
		t.Fatal(err)
	}
	if len(qe.Results) != 1 || qe.Results[0].Error == "" {
		t.Fatalf("unknown arch did not error: %s", w.Body)
	}
}
