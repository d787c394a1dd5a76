package main

// Wire conformance set: the exact /query and /sweep response bodies for
// every query kind over the STREAM and DGEMM workloads — roofline and
// fine categories on two architectures, and the error cells (unknown
// function, bad kind, missing function, unknown architecture, a
// per-point overflow). Each file under testdata/wire/ holds one case's
// HTTP status on the first line and the response body after it, so any
// change to a published number, field order, or error text shows up as
// a diff here.
//
// After an intended wire change, regenerate the files with
//
//	go test ./cmd/mira-serve -run TestWireConformance -update
//
// The reflection structs below are the encoder's oracle: cellEncoder
// must write what encoding/json writes for them, byte for byte.
// FuzzWireCell holds it to that on arbitrary cells, and the tests decode
// responses into them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mira/internal/arch"
	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/obs"
	"mira/internal/pbound"
	"mira/internal/roofline"
)

type metricsPayload struct {
	Instrs int64 `json:"instrs"`
	Flops  int64 `json:"flops"`
	FPI    int64 `json:"fpi"`
}

// wireValue is one evaluated cell on the wire: exactly one value field
// is set on success, and Error carries a per-cell failure without
// failing the batch or the sweep.
type wireValue struct {
	Error      string             `json:"error,omitempty"`
	Metrics    *metricsPayload    `json:"metrics,omitempty"`
	Categories map[string]int64   `json:"categories,omitempty"`
	Roofline   *roofline.Analysis `json:"roofline,omitempty"`
	PBound     *pbound.Counts     `json:"pbound,omitempty"`
}

// toWire converts an engine cell value (or its error) to its wire form.
func toWire(v engine.Value, err error) wireValue {
	if err != nil {
		return wireValue{Error: err.Error()}
	}
	w := wireValue{Categories: v.Categories, Roofline: v.Roofline, PBound: v.PBound}
	if m := v.Metrics; m != nil {
		w.Metrics = &metricsPayload{Instrs: m.Instrs, Flops: m.Flops, FPI: m.FPI()}
	}
	return w
}

// queryCell is one evaluated /query cell.
type queryCell struct {
	Fn   string `json:"fn"`
	Kind string `json:"kind"`
	wireValue
}

type queryResponse struct {
	Key     string      `json:"key"`
	Results []queryCell `json:"results"`
}

// sweepPointCell is one grid cell on the wire.
type sweepPointCell struct {
	Env  map[string]int64 `json:"env"`
	Arch string           `json:"arch,omitempty"`
	wireValue
}

var update = flag.Bool("update", false, "rewrite testdata/wire from the current responses")

const wireDir = "testdata/wire"

// wireCase is one pinned request.
type wireCase struct {
	name string
	path string
	body map[string]any
}

// wireKinds are the query kinds pinned per function: the arch-dependent
// ones on the analysis's own description and on two registered ones.
var wireKinds = []struct{ kind, arch string }{
	{"static", ""}, {"static_exclusive", ""}, {"categories", ""}, {"pbound", ""},
	{"fine_categories", ""}, {"fine_categories", "arya"}, {"fine_categories", "skylake"},
	{"roofline", ""}, {"roofline", "arya"}, {"roofline", "skylake"},
}

func wireCases() []wireCase {
	progs := []struct {
		name, src string
		fns       []string
		env       map[string]int64
		axes      []map[string]any
	}{
		{"stream", benchprogs.Stream,
			[]string{"tuned_copy", "tuned_scale", "tuned_add", "tuned_triad", "stream"},
			map[string]int64{"n": 1000},
			[]map[string]any{{"name": "n", "values": []int64{10, 1000, 100000}}}},
		{"dgemm", benchprogs.Dgemm,
			[]string{"dgemm", "dgemm_bench"},
			map[string]int64{"n": 16, "nrep": 3},
			[]map[string]any{{"name": "n", "values": []int64{4, 32}}, {"name": "nrep", "values": []int64{1, 5}}}},
	}
	var cases []wireCase
	for _, p := range progs {
		var queries []map[string]any
		for _, fn := range p.fns {
			for _, k := range wireKinds {
				queries = append(queries, map[string]any{"fn": fn, "env": p.env, "kind": k.kind, "arch": k.arch})
			}
		}
		queries = append(queries,
			map[string]any{"fn": "nosuchfn", "env": p.env, "kind": "static"},
			map[string]any{"fn": "nosuchfn", "env": p.env, "kind": "roofline"},
			map[string]any{"fn": p.fns[0], "env": p.env, "kind": "bogus_kind"},
			map[string]any{"fn": "", "env": p.env, "kind": "static"},
			map[string]any{"fn": p.fns[0], "env": p.env, "kind": "roofline", "arch": "nosucharch"},
			map[string]any{"fn": p.fns[0], "env": p.env, "kind": "fine_categories", "arch": "nosucharch"},
			map[string]any{"fn": p.fns[0], "env": map[string]int64{}, "kind": "static"},
		)
		cases = append(cases, wireCase{"query_" + p.name, "/query",
			map[string]any{"name": p.name + ".c", "source": p.src, "queries": queries}})

		fn := p.fns[len(p.fns)-1]
		for _, k := range wireKinds {
			name := "sweep_" + p.name + "_" + k.kind
			body := map[string]any{"name": p.name + ".c", "source": p.src, "fn": fn, "kind": k.kind, "axes": p.axes}
			if k.arch != "" {
				if k.arch != "arya" {
					continue // one arch-pinned sweep per kind, crossing both archs
				}
				name += "_archs"
				body["archs"] = []string{"arya", "skylake"}
			}
			cases = append(cases, wireCase{name, "/sweep", body})
		}
		for _, e := range []struct {
			name string
			body map[string]any
		}{
			{"unknown_fn", map[string]any{"fn": "nosuchfn", "kind": "static", "axes": p.axes}},
			{"bad_kind", map[string]any{"fn": fn, "kind": "bogus_kind", "axes": p.axes}},
			{"missing_fn", map[string]any{"kind": "static", "axes": p.axes}},
			{"unknown_arch", map[string]any{"fn": fn, "kind": "roofline", "axes": p.axes, "archs": []string{"arya", "nosucharch"}}},
		} {
			e.body["name"], e.body["source"] = p.name+".c", p.src
			cases = append(cases, wireCase{"sweep_" + p.name + "_" + e.name, "/sweep", e.body})
		}
	}
	// Per-point overflow: dgemm's n^3 leaves int64 at the largest size
	// while the smaller points still evaluate.
	cases = append(cases, wireCase{"sweep_dgemm_overflow", "/sweep", map[string]any{
		"name": "dgemm.c", "source": benchprogs.Dgemm, "fn": "dgemm_bench", "kind": "static",
		"axes": []map[string]any{{"name": "n", "values": []int64{8, 1 << 21, 1 << 22}}},
		"base": map[string]int64{"nrep": 4},
	}})
	return cases
}

func TestWireConformance(t *testing.T) {
	h := newTestServer(t, "")
	if *update {
		if err := os.MkdirAll(wireDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cases := wireCases()
	entries, err := os.ReadDir(wireDir)
	if err != nil {
		t.Fatal(err)
	}
	if !*update && len(entries) != len(cases) {
		t.Errorf("%d files under %s for %d cases", len(entries), wireDir, len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := postJSON(t, h, c.path, c.body)
			got := fmt.Sprintf("%d\n%s", w.Code, w.Body)
			path := filepath.Join(wireDir, c.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s: response differs from the pinned bytes\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// oracleValue is the wire form encoding/json gives a cell. A value it
// refuses — a non-finite roofline figure — has no such form; the encoder
// writes the cell's error instead, and so does the oracle.
func oracleValue(t *testing.T, v engine.Value, err error) wireValue {
	w := toWire(v, err)
	if _, jerr := json.Marshal(w); jerr != nil {
		var unsupported *json.UnsupportedValueError
		bad := nonFinite(v.Roofline)
		if !errors.As(jerr, &unsupported) || bad == nil {
			t.Fatalf("encoding/json refuses %+v (%v); nonFinite says %v", v, jerr, bad)
		}
		w = toWire(v, bad)
	}
	return w
}

// fuzzPoints builds five sweep points from one fuzz input. The env key
// sets are the first's, then the same set or another of its size (shape
// bit 0), then nil or empty (bit 1), then a larger set, then the first's
// again. Each point's value kind rotates from shape>>2. Bit 5 sets arch,
// alternating between two names; the roofline function alternates too.
func fuzzPoints(k1, k2, archName, errMsg string, i1, i2 int64, f1, f2 float64, shape uint8) []engine.SweepPoint {
	envs := []map[string]int64{{k1: i1, k2: i2}, {k1 + "z": i2, k2: i1}, nil, {k1: i2, k2: i1, "n": 7}, {k1: i2, k2: i1}}
	if shape&1 != 0 {
		envs[1] = map[string]int64{k1: i2, k2: i1}
	}
	if shape&2 != 0 {
		envs[2] = map[string]int64{}
	}
	metrics := func() *model.Metrics {
		m := &model.Metrics{Instrs: i1, Flops: i2}
		m.ByCategory[ir.CatSSEArith] = i1 ^ i2
		return m
	}
	cats := map[string]int64{k1: i2, archName: i1, "SSE2 data movement": i1 - i2}
	roof := func(fn string) *roofline.Analysis {
		return &roofline.Analysis{Function: fn, InstrAI: f1, ByteAI: f2, RidgeAI: -f1,
			AttainableGFlops: f1 * f2, MemoryBound: shape&0x40 != 0}
	}
	counts := &pbound.Counts{Flops: i1, Loads: i2, Stores: -i1}
	names := [2]string{archName, k2}
	points := make([]engine.SweepPoint, len(envs))
	for i := range points {
		p := &points[i]
		p.Env = envs[i]
		if shape&0x20 != 0 {
			p.Arch = names[i%2]
		}
		switch (int(shape>>2) + i) % 7 {
		case 0:
			p.Err = errors.New(errMsg)
		case 1:
			p.Metrics = metrics()
		case 2:
			p.Categories = cats
		case 3:
			p.Roofline = roof(names[(i+1)%2])
		case 4:
			p.PBound = counts
		case 5: // an empty value: no field at all
		case 6:
			p.Value = engine.Value{Metrics: metrics(), Categories: cats, Roofline: roof(names[(i+1)%2]), PBound: counts}
		}
	}
	return points
}

// FuzzWireCell holds cellEncoder to encoding/json on arbitrary cells:
// keys, arch, function and error strings with HTML characters, control
// bytes, invalid UTF-8 and U+2028; int64 extremes; floats on both sides
// of the 1e-6 and 1e21 format switches and non-finite ones; and env key
// sets that repeat, change, and go missing.
func FuzzWireCell(f *testing.F) {
	f.Add("n", "nrep", "arya", "model: count overflows int64", int64(16), int64(3), 0.7096774193548387, 1.6, uint8(0))
	f.Add("<a>&b", "\u2028\u2029", "sky\xfflake", "bad \"cell\"\n\x00\x7f\\", int64(math.MinInt64), int64(math.MaxInt64), 1e-6, 1e21, uint8(0xff))
	f.Add("", "n", "", "", int64(-1), int64(0), math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), uint8(0x55))
	f.Add("a", "b", "x", "e", int64(1), int64(2), 5e-324, math.MaxFloat64, uint8(0xaa))
	f.Add("a", "a", "x", "e", int64(1), int64(2), -1e-7, -1e22, uint8(0x1c))
	f.Add("a", "b", "x", "e", int64(1), int64(2), math.Inf(1), math.NaN(), uint8(0x0c))
	f.Fuzz(func(t *testing.T, k1, k2, archName, errMsg string, i1, i2 int64, f1, f2 float64, shape uint8) {
		points := fuzzPoints(k1, k2, archName, errMsg, i1, i2, f1, f2, shape)

		var e cellEncoder
		e.appendSweepHeader(k1, k2, archName, len(points))
		var want bytes.Buffer
		want.Write(e.buf)
		enc := json.NewEncoder(&want)
		for i := range points {
			if i > 0 {
				e.buf = append(e.buf, ',')
				want.WriteByte(',')
			}
			p := &points[i]
			e.appendSweepPoint(p)
			if err := enc.Encode(sweepPointCell{Env: p.Env, Arch: p.Arch, wireValue: oracleValue(t, p.Value, p.Err)}); err != nil {
				t.Fatal(err)
			}
		}
		e.buf = append(e.buf, "]}\n"...)
		want.WriteString("]}\n")
		if !bytes.Equal(e.buf, want.Bytes()) {
			t.Fatalf("sweep points differ from encoding/json\ngot:  %q\nwant: %q", e.buf, want.Bytes())
		}
		if !json.Valid(e.buf) {
			t.Fatalf("sweep document is not valid JSON: %q", e.buf)
		}

		queries := make([]wireQuery, len(points))
		results := make([]engine.QueryResult, len(points))
		resp := queryResponse{Key: errMsg}
		for i, p := range points {
			queries[i] = wireQuery{Fn: k1, Kind: p.Arch}
			results[i] = engine.QueryResult{Value: p.Value, Err: p.Err}
			resp.Results = append(resp.Results, queryCell{Fn: k1, Kind: p.Arch, wireValue: oracleValue(t, p.Value, p.Err)})
		}
		e = cellEncoder{}
		e.appendQueryResponse(errMsg, queries, results)
		want.Reset()
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.buf, want.Bytes()) {
			t.Fatalf("query response differs from encoding/json\ngot:  %q\nwant: %q", e.buf, want.Bytes())
		}
	})
}

// TestNonFiniteRooflineIsAnErrorCell: a roofline figure JSON cannot
// carry becomes that cell's error, and both responses stay one valid
// JSON document. The registry refuses such machines, so the engine gets
// its description unvalidated, as a Go caller could hand it.
func TestNonFiniteRooflineIsAnErrorCell(t *testing.T) {
	d := arch.Generic()
	d.MemBandwidthGBs = 1e-310 // ridge_ai = +Inf
	reg := obs.NewRegistry()
	h := newServer(engine.New(engine.Options{Core: core.Options{Arch: d}, Obs: reg}), reg, nil, nil, AdmissionOptions{}, RateLimiterOptions{})
	const want = "ridge_ai is +Inf"

	w := postJSON(t, h, "/sweep", map[string]any{
		"name": "kernel.c", "source": kernelSrc, "fn": "kernel", "kind": "roofline",
		"axes": []map[string]any{{"name": "n", "values": []int64{10, 100}}},
	})
	if w.Code != 200 || !json.Valid(w.Body.Bytes()) {
		t.Fatalf("sweep: %d, not one JSON document:\n%s", w.Code, w.Body)
	}
	sw := decodeSweep(t, w.Body.Bytes())
	if len(sw.Points) != 2 {
		t.Fatalf("sweep: %d points, want 2", len(sw.Points))
	}
	for _, p := range sw.Points {
		if p.Roofline != nil || !strings.Contains(p.Error, want) {
			t.Errorf("sweep point %v: roofline %+v, error %q; want an error naming %q", p.Env, p.Roofline, p.Error, want)
		}
	}

	resp := query(t, h, map[string]any{"name": "kernel.c", "source": kernelSrc, "queries": []map[string]any{
		{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "roofline"},
		{"fn": "kernel", "env": map[string]int64{"n": 10}, "kind": "static"},
	}})
	if c := resp.Results[0]; c.Roofline != nil || !strings.Contains(c.Error, want) {
		t.Errorf("query roofline cell: %+v; want an error naming %q", c, want)
	}
	if c := resp.Results[1]; c.Error != "" || c.Metrics == nil {
		t.Errorf("query static cell beside it: %+v", c)
	}
}
