package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mira/internal/engine"
	"mira/internal/report"
)

// wireReport mirrors the /report JSON encoding for decoding in tests.
type wireReport struct {
	Suite  string `json:"suite"`
	Title  string `json:"title"`
	Tables []struct {
		Name    string `json:"name"`
		Caption string `json:"caption"`
		Columns []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"columns"`
		Rows []struct {
			Cells []any  `json:"cells"`
			Error string `json:"error"`
		} `json:"rows"`
	} `json:"tables"`
}

// TestWorkloadsEndpoint: the registry lists every embedded workload
// with its content key, and a client can /query by that key without
// ever uploading source.
func TestWorkloadsEndpoint(t *testing.T) {
	h := newTestServer(t, "")
	w := get(h, "/workloads")
	if w.Code != 200 {
		t.Fatalf("GET /workloads: %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Workloads []struct {
			Name  string   `json:"name"`
			File  string   `json:"file"`
			Funcs []string `json:"funcs"`
			Key   string   `json:"key"`
		} `json:"workloads"`
		Suites []string `json:"suites"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for _, wl := range resp.Workloads {
		if wl.Key == "" || wl.File == "" || len(wl.Funcs) == 0 {
			t.Errorf("incomplete workload entry: %+v", wl)
		}
		keys[wl.Name] = wl.Key
	}
	for _, name := range []string{"stream", "dgemm", "minife", "ablation"} {
		if keys[name] == "" {
			t.Errorf("missing workload %q", name)
		}
	}
	if len(resp.Suites) == 0 || !contains(resp.Suites, "table_iii") {
		t.Errorf("suites = %v", resp.Suites)
	}

	// The advertised key is directly queryable — no source upload, no
	// prior /analyze.
	qw := postJSON(t, h, "/query", map[string]any{
		"key": keys["stream"],
		"queries": []map[string]any{
			{"fn": "stream", "env": map[string]int64{"n": 1000}, "kind": "static"},
		},
	})
	if qw.Code != 200 {
		t.Fatalf("query by workload key: %d: %s", qw.Code, qw.Body.String())
	}
	var qresp struct {
		Results []struct {
			Error   string `json:"error"`
			Metrics *struct {
				FPI int64 `json:"fpi"`
			} `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(qw.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if len(qresp.Results) != 1 || qresp.Results[0].Error != "" || qresp.Results[0].Metrics == nil {
		t.Fatalf("query result: %s", qw.Body.String())
	}
	if got := qresp.Results[0].Metrics.FPI; got != 40_000 {
		t.Errorf("stream FPI at n=1000 = %d, want 40000", got)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestReportNamedSuiteTableIII is the acceptance check: POST /report
// for a named paper suite returns JSON whose rows match the golden
// ASCII rendering cell for cell.
func TestReportNamedSuiteTableIII(t *testing.T) {
	h := newTestServer(t, "")

	// The golden: the same suite run directly through a report runner
	// (the golden tests pin this rendering byte-equal to the legacy
	// formatters).
	runner := report.NewRunner(engine.New(engine.Options{}))
	want, err := runner.Run(context.Background(), testSuites()["table_iii"])
	if err != nil {
		t.Fatal(err)
	}

	// ASCII form matches the golden rendering exactly.
	tw := postJSON(t, h, "/report", map[string]any{"suite": "table_iii", "format": "table"})
	if tw.Code != 200 {
		t.Fatalf("table format: %d: %s", tw.Code, tw.Body.String())
	}
	if got := tw.Body.String(); got != want.Text() {
		t.Errorf("ASCII report differs from the golden rendering:\ngot:\n%s\nwant:\n%s", got, want.Text())
	}

	// JSON form matches cell for cell.
	jw := postJSON(t, h, "/report", map[string]any{"suite": "table_iii"})
	if jw.Code != 200 {
		t.Fatalf("json format: %d: %s", jw.Code, jw.Body.String())
	}
	if ct := jw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var got wireReport
	if err := json.Unmarshal(jw.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Suite != "table_iii" || len(got.Tables) != len(want.Tables) {
		t.Fatalf("report shape: %+v", got)
	}
	for ti, wt := range want.Tables {
		gt := got.Tables[ti]
		if gt.Caption != wt.Caption || len(gt.Rows) != len(wt.Rows) || len(gt.Columns) != len(wt.Columns) {
			t.Fatalf("table %d shape: got %+v", ti, gt)
		}
		for ri, wr := range wt.Rows {
			gr := gt.Rows[ri]
			if len(gr.Cells) != len(wr.Cells) {
				t.Fatalf("table %d row %d: %d cells, want %d", ti, ri, len(gr.Cells), len(wr.Cells))
			}
			// Re-encode the golden row through the same JSON path and
			// compare decoded cell values one by one.
			var wantCells []any
			{
				tmp := report.Report{Tables: []report.Table{{Columns: wt.Columns, Rows: []report.Row{wr}}}}
				var sb strings.Builder
				if err := tmp.EncodeJSON(&sb); err != nil {
					t.Fatal(err)
				}
				var decoded wireReport
				if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
					t.Fatal(err)
				}
				wantCells = decoded.Tables[0].Rows[0].Cells
			}
			for ci := range wr.Cells {
				if gr.Cells[ci] != wantCells[ci] {
					t.Errorf("table %d row %d cell %d = %#v, want %#v", ti, ri, ci, gr.Cells[ci], wantCells[ci])
				}
			}
		}
	}
}

// TestReportInlineSpec: a client-supplied declarative spec over an
// embedded workload, in every encoding.
func TestReportInlineSpec(t *testing.T) {
	h := newTestServer(t, "")
	spec := map[string]any{
		"name": "stream_scaling",
		"sections": []map[string]any{{
			"name":     "stream_fpi",
			"caption":  "STREAM static FPI scaling",
			"workload": "stream",
			"fn":       "stream",
			"kind":     "static",
			"axes":     []map[string]any{{"name": "n", "values": []int64{1000, 2000, 4000}}},
		}},
	}
	for _, format := range []string{"", "table", "csv", "markdown"} {
		body := map[string]any{"spec": spec}
		if format != "" {
			body["format"] = format
		}
		w := postJSON(t, h, "/report", body)
		if w.Code != 200 {
			t.Fatalf("format %q: %d: %s", format, w.Code, w.Body.String())
		}
		out := w.Body.String()
		switch format {
		case "", "json":
			var rep wireReport
			if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
				t.Fatalf("format %q: %v", format, err)
			}
			if rep.Suite != "stream_scaling" || len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 3 {
				t.Errorf("format %q: %+v", format, rep)
			}
			// 40n at n=4000.
			if cells := rep.Tables[0].Rows[2].Cells; cells[len(cells)-1] != float64(160000) {
				t.Errorf("fpi cell = %v", cells)
			}
		case "table":
			if !strings.Contains(out, "STREAM static FPI scaling") || !strings.Contains(out, "160000") {
				t.Errorf("table output:\n%s", out)
			}
		case "csv":
			if !strings.Contains(out, "# stream_fpi: STREAM static FPI scaling") || !strings.Contains(out, "4000,") {
				t.Errorf("csv output:\n%s", out)
			}
		case "markdown":
			if !strings.Contains(out, "| n |") {
				t.Errorf("markdown output:\n%s", out)
			}
		}
	}
}

// TestReportErrors: spec and selection mistakes are 4xx with JSON
// bodies; an over-limit grid is 413.
func TestReportErrors(t *testing.T) {
	h := newTestServer(t, "")
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"neither", map[string]any{}, 400},
		{"both", map[string]any{"suite": "table_iii", "spec": map[string]any{"sections": []any{}}}, 400},
		{"unknown suite", map[string]any{"suite": "table_ix"}, 404},
		{"bad format", map[string]any{"suite": "table_iii", "format": "yaml"}, 400},
		{"empty spec", map[string]any{"spec": map[string]any{"sections": []any{}}}, 400},
		{"bad kind", map[string]any{"spec": map[string]any{"sections": []map[string]any{
			{"workload": "stream", "fn": "stream", "kind": "bogus"},
		}}}, 400},
		{"unknown workload", map[string]any{"spec": map[string]any{"sections": []map[string]any{
			{"workload": "hpl", "fn": "main"},
		}}}, 422},
		{"unknown function", map[string]any{"spec": map[string]any{"sections": []map[string]any{
			{"workload": "stream", "fn": "nope", "points": []map[string]int64{{"n": 1}}},
		}}}, 422},
		{"grid too large", map[string]any{"spec": map[string]any{"sections": []map[string]any{
			{"workload": "stream", "fn": "stream", "axes": []map[string]any{
				{"name": "n", "values": bigValues(300)},
				{"name": "m", "values": bigValues(300)},
			}},
		}}}, 413},
	}
	for _, c := range cases {
		w := postJSON(t, h, "/report", c.body)
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", c.name, w.Body.String())
		}
	}
}

func bigValues(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// TestReportObsSeries: /report traffic shows up in the mira_report_*
// and mira_http_report_* series.
func TestReportObsSeries(t *testing.T) {
	h := newTestServer(t, "")
	w := postJSON(t, h, "/report", map[string]any{"spec": map[string]any{
		"sections": []map[string]any{{
			"workload": "stream", "fn": "stream",
			"axes": []map[string]any{{"name": "n", "values": []int64{10, 20}}},
		}},
	}})
	if w.Code != 200 {
		t.Fatalf("report: %d: %s", w.Code, w.Body.String())
	}
	exp := scrapeMetrics(t, h)
	for _, want := range []string{
		"mira_http_report_requests_total 1",
		"mira_report_runs_total 1",
		"mira_report_rows_total 2",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSuitesDeterministicAcrossWorkers: every named suite encodes to the
// same text whether its engine runs serially or with four workers, so
// the worker bound (mira-bench -j, mira-serve -j) never changes a
// published number or its row order.
func TestSuitesDeterministicAcrossWorkers(t *testing.T) {
	serial := report.NewRunner(engine.New(engine.Options{Workers: 1}))
	parallel := report.NewRunner(engine.New(engine.Options{Workers: 4}))
	for name, suite := range testSuites() {
		var texts [2]string
		for i, r := range []*report.Runner{serial, parallel} {
			rep, err := r.Run(context.Background(), suite)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			texts[i] = rep.Text()
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: -j 1 and -j 4 encode differently:\n-j 1:\n%s\n-j 4:\n%s", name, texts[0], texts[1])
		}
	}
}
