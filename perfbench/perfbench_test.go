package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// self-test checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// selfTestTracedOps are the self-test's traced op counts. The traced run fails
// when the layers' self times do not sum to the engine calls within 10%;
// these counts give every workload enough in-process engine time (a few
// hundred milliseconds) for that tolerance to sit well above the
// machine's scheduling noise.
var selfTestTracedOps = map[string]int{"analyze": 60, "edit": 60, "query": 9600, "sweep": 30}

// TestWorkloads runs every workload at a small op count, untraced and
// traced, and checks that each run is correct and prints exactly the
// metrics BENCHMARK.json declares, with their units. It checks no bound.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts mira-serve; skipped in -short mode")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mira-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "mira/cmd/mira-serve").CombinedOutput(); err != nil {
		t.Fatalf("build mira-serve: %v\n%s", err, out)
	}
	units := func(trace bool) map[string]string {
		out := map[string]string{}
		list := spec.EndToEnd
		if trace {
			list = spec.PerLayer
		}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			ops := 20
			if trace {
				ops = selfTestTracedOps[w.Name]
			}
			var log bytes.Buffer
			res, err := run(context.Background(), config{
				serve: bin, workload: w.Name, seed: 7, seconds: 1, trace: trace, out: dir, ops: ops,
			}, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < ops {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := units(trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestPlanDeterministic checks that a seed fixes the inputs and that the
// stratified workloads keep their drawn shares.
func TestPlanDeterministic(t *testing.T) {
	for _, w := range []string{"analyze", "edit", "query", "sweep"} {
		a, err := makePlan(w, 5, 28, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, 5, 28, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.timed) != len(b.timed) || len(a.timed) < 100 {
			t.Fatalf("%s: %d vs %d timed ops", w, len(a.timed), len(b.timed))
		}
		for i := range a.timed {
			x, y := a.timed[i], b.timed[i]
			if x.src != y.src || x.fn != y.fn || envKey(x.env) != envKey(y.env) || x.kind != y.kind || x.work != y.work {
				t.Fatalf("%s: op %d differs between two plans of one seed", w, i)
			}
		}
	}
	q, err := makePlan("query", 9, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	var reps, cells, repCells float64
	for _, o := range q.timed {
		cells += o.work
		if o.repeat {
			reps++
			repCells += o.work
		}
	}
	if got := reps / float64(len(q.timed)); got != q.repeatShare {
		t.Errorf("query request repeat share %g, want %g", got, q.repeatShare)
	}
	if got := repCells / cells; got != q.repeatShare {
		t.Errorf("query cell repeat share %g, want %g", got, q.repeatShare)
	}
}

// TestCheckSweep checks the whole-body sweep check against answers the
// daemon could send: a good one, and each way a point or the grid can be
// wrong.
func TestCheckSweep(t *testing.T) {
	pt := func(env int, body string) string { return fmt.Sprintf(`{"env":{"n":%d},%s}`+"\n", env, body) }
	met := `"metrics":{"instrs":10,"flops":2,"fpi":2}`
	sweep := func(total int, points ...string) []byte {
		return []byte(fmt.Sprintf(`{"key":"k","fn":"f","kind":"static","total":%d,"points":[%s]}`+"\n", total, strings.Join(points, ",")))
	}
	static := &op{kind: "static", work: 2}
	for _, c := range []struct {
		name string
		raw  []byte
		o    *op
		ok   bool
	}{
		{"good", sweep(2, pt(1, met), pt(2, met)), static, true},
		{"short grid", sweep(1, pt(1, met)), static, false},
		{"missing point", sweep(2, pt(1, met)), static, false},
		{"point error", sweep(2, pt(1, met), pt(2, `"error":"unbound n"`)), static, false},
		{"no answer", sweep(2, pt(1, met), pt(2, `"arch":"zen2"`)), static, false},
		{"wrong kind", sweep(2, pt(1, met), pt(2, met)), &op{kind: "roofline", work: 2}, false},
		{"truncated", sweep(2, pt(1, met), pt(2, met))[:60], static, false},
	} {
		if err := checkSweep(c.raw, c.o); (err == nil) != c.ok {
			t.Errorf("%s: checkSweep = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
