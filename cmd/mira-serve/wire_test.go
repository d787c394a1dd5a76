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

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mira/internal/benchprogs"
)

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
