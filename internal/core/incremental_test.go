package core_test

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cc"
	"mira/internal/core"
	"mira/internal/metrics"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

var incrPrograms = []struct {
	name string
	src  string
}{
	{"stream", benchprogs.Stream},
	{"dgemm", benchprogs.Dgemm},
	{"minife", benchprogs.MiniFE},
	{"fig5", benchprogs.Fig5},
	{"listing1", benchprogs.Listing1},
	{"listing2", benchprogs.Listing2},
	{"listing4", benchprogs.Listing4},
	{"listing5", benchprogs.Listing5},
	{"ablation", benchprogs.Ablation},
}

func mustProgram(t *testing.T, name, src string) *sema.Program {
	t.Helper()
	file, err := parser.ParseFile(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		t.Fatalf("sema %s: %v", name, err)
	}
	return prog
}

// reference analyzes src the whole-program way — cc.Compile, the
// object-file round trip, metrics.Generate — with no per-function units
// and no cache: the oracle every analysis core produces must match.
func reference(t *testing.T, name, src string, opts core.Options) *core.Pipeline {
	t.Helper()
	prog := mustProgram(t, name, src)
	obj, err := cc.Compile(prog, cc.Options{SourceName: name, DisableOpt: opts.DisableOpt})
	if err != nil {
		t.Fatalf("reference compile %s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := obj.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := objfile.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	m, warns, err := metrics.Generate(prog, decoded, metrics.Config{Lenient: opts.Lenient})
	if err != nil {
		t.Fatalf("reference metrics %s: %v", name, err)
	}
	return &core.Pipeline{Name: name, Source: src, Prog: prog, Obj: decoded, Model: m, Warnings: warns}
}

// encodeObject returns the portable bytes of a pipeline's object file.
func encodeObject(t *testing.T, p *core.Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Obj.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameResult fails unless got and want agree byte for byte: Python
// model, encoded object file, and warnings.
func sameResult(t *testing.T, what string, got, want *core.Pipeline) {
	t.Helper()
	if got.PythonModel() != want.PythonModel() {
		t.Errorf("%s: python model differs from the reference", what)
	}
	if !bytes.Equal(encodeObject(t, got), encodeObject(t, want)) {
		t.Errorf("%s: object bytes differ from the reference", what)
	}
	if g, w := strings.Join(got.Warnings, "\n"), strings.Join(want.Warnings, "\n"); g != w {
		t.Errorf("%s: warnings differ: %q vs %q", what, g, w)
	}
}

// shiftLine inserts two spaces at the start of the 1-based line, a
// column-only mutation: it always lexes, and since function keys hash
// each declaration's text anchored at its first token, it changes the
// positions of exactly the tokens on that line.
func shiftLine(src string, line int) string {
	lines := strings.Split(src, "\n")
	lines[line-1] = "  " + lines[line-1]
	return strings.Join(lines, "\n")
}

// appendComment appends a block comment to the 1-based line: it moves
// no token, yet it changes the source text of the declaration the line
// lies inside, and so that declaration's key.
func appendComment(src string, line int) string {
	lines := strings.Split(src, "\n")
	lines[line-1] += " /* */"
	return strings.Join(lines, "\n")
}

// mutations are the one-line edits the incremental property is checked
// under.
var mutations = []struct {
	name  string
	apply func(src string, line int) string
}{
	{"shift", shiftLine},
	{"comment", appendComment},
}

// mutationLine picks the line to mutate for a function: the first body
// statement when there is one, else the body's opening brace. It is
// never the line of the closing brace in the benchmark programs, so an
// appended comment lands inside the function.
func mutationLine(fi *sema.FuncInfo) int {
	if len(fi.Decl.Body.Stmts) > 0 {
		return fi.Decl.Body.Stmts[0].Pos().Line
	}
	return fi.Decl.Body.BracePos.Line
}

// reverseClosure returns target plus every function that reaches it
// through the static call graph — the set an edit to target may affect,
// and therefore exactly what an incremental analysis must recompile.
func reverseClosure(prog *sema.Program, target string) map[string]bool {
	callers := map[string][]string{}
	for q, fi := range prog.Funcs {
		for _, c := range fi.Callees {
			callers[c] = append(callers[c], q)
		}
	}
	out := map[string]bool{target: true}
	work := []string{target}
	for len(work) > 0 {
		q := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[q] {
			if !out[caller] {
				out[caller] = true
				work = append(work, caller)
			}
		}
	}
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// TestIncrementalMutationProperty is the correctness property of the
// incremental pipeline: for every benchmark program, every defined
// function and every mutation (a column shift, or a comment that moves
// no token), mutating that one function and re-analyzing against the
// artifacts of the original source must (a) produce byte-identical
// results to the whole-program reference analysis of the mutated
// source, and (b) recompile exactly the mutated function plus its
// transitive callers, reusing everything else.
func TestIncrementalMutationProperty(t *testing.T) {
	opts := core.Options{Lenient: true}
	for _, tc := range incrPrograms {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := core.AnalyzeIncrementalContext(context.Background(), tc.name, tc.src, opts, nil)
			if err != nil {
				t.Fatalf("cold incremental analyze: %v", err)
			}
			if len(orig.Delta.Reused) != 0 {
				t.Fatalf("nil lookup reused %v", orig.Delta.Reused)
			}
			sameResult(t, "uncached", orig.Pipeline, reference(t, tc.name, tc.src, opts))
			byKey := map[string]*core.FuncArtifact{}
			for _, art := range orig.Artifacts {
				byKey[art.Key] = art
			}
			lookup := func(key, _ string) (*core.FuncArtifact, bool) {
				art, ok := byKey[key]
				return art, ok
			}
			prog := mustProgram(t, tc.name, tc.src)

			for _, target := range prog.FuncOrder {
				fi := prog.Funcs[target]
				if fi.Decl.IsExtern {
					continue
				}
				for _, mut := range mutations {
					what := target + "/" + mut.name
					mutated := mut.apply(tc.src, mutationLine(fi))
					if mutated == tc.src {
						t.Fatalf("%s: mutation did not change the source", what)
					}
					expected := reverseClosure(prog, target)

					incr, err := core.AnalyzeIncrementalContext(context.Background(), tc.name, mutated, opts, lookup)
					if err != nil {
						t.Fatalf("%s: incremental analyze: %v", what, err)
					}
					// (a) Byte-identical results.
					sameResult(t, what, incr.Pipeline, reference(t, tc.name, mutated, opts))

					// (b) Recompiled exactly the reverse closure.
					gotCompiled := append([]string{}, incr.Delta.Compiled...)
					sort.Strings(gotCompiled)
					if want := sortedSet(expected); !equalStrings(gotCompiled, want) {
						t.Errorf("%s: recompiled %v, want %v", what, gotCompiled, want)
					}
					if got, want := len(incr.Delta.Reused)+len(incr.Delta.Compiled), len(prog.FuncOrder); got != want {
						t.Errorf("%s: delta covers %d functions, program has %d", what, got, want)
					}

					// Keys of untouched functions are stable; keys inside the
					// closure must change (that is what invalidates them).
					for _, q := range prog.FuncOrder {
						same := incr.Pipeline.FuncKeys[q] == orig.Pipeline.FuncKeys[q]
						if expected[q] && same {
							t.Errorf("%s: key of %s unchanged by mutation", what, q)
						}
						if !expected[q] && !same {
							t.Errorf("%s: key of untouched %s changed", what, q)
						}
					}
				}
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncrementalIdenticalSourceReusesAll re-analyzes an unchanged
// source against its own artifacts: everything reuses, nothing
// compiles, and the results still match a cold run byte for byte.
func TestIncrementalIdenticalSourceReusesAll(t *testing.T) {
	opts := core.Options{Lenient: true}
	src := benchprogs.MiniFE
	orig, err := core.AnalyzeIncrementalContext(context.Background(), "minife", src, opts, nil)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	byKey := map[string]*core.FuncArtifact{}
	for _, art := range orig.Artifacts {
		byKey[art.Key] = art
	}
	again, err := core.AnalyzeIncrementalContext(context.Background(), "minife", src, opts, func(key, _ string) (*core.FuncArtifact, bool) {
		art, ok := byKey[key]
		return art, ok
	})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if len(again.Delta.Compiled) != 0 {
		t.Fatalf("unchanged source recompiled %v", again.Delta.Compiled)
	}
	if got, want := again.Pipeline.PythonModel(), orig.Pipeline.PythonModel(); got != want {
		t.Fatalf("warm python model differs from cold")
	}
}

// TestIncrementalUnitRoundTrip checks the store representation: a unit
// encoded with EncodeUnit and restored with DecodeUnit must stand in
// for the original in a subsequent incremental analysis (model absent,
// so metrics regenerate — but the linked object is byte-identical).
func TestIncrementalUnitRoundTrip(t *testing.T) {
	opts := core.Options{Lenient: true}
	src := benchprogs.Dgemm
	orig, err := core.AnalyzeIncrementalContext(context.Background(), "dgemm", src, opts, nil)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	byKey := map[string]*core.FuncArtifact{}
	for _, art := range orig.Artifacts {
		raw := core.EncodeUnit(art.Unit)
		u, err := core.DecodeUnit(raw)
		if err != nil {
			t.Fatalf("round-trip %s: %v", art.Name, err)
		}
		byKey[art.Key] = &core.FuncArtifact{Key: art.Key, Name: art.Name, Unit: u}
	}
	again, err := core.AnalyzeIncrementalContext(context.Background(), "dgemm", src, opts, func(key, _ string) (*core.FuncArtifact, bool) {
		art, ok := byKey[key]
		return art, ok
	})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if len(again.Delta.Compiled) != 0 {
		t.Fatalf("round-tripped units missed: recompiled %v", again.Delta.Compiled)
	}
	if !bytes.Equal(encodeObject(t, again.Pipeline), encodeObject(t, orig.Pipeline)) {
		t.Fatalf("object bytes differ after unit round trip")
	}
	if got, want := again.Pipeline.PythonModel(), orig.Pipeline.PythonModel(); got != want {
		t.Fatalf("python model differs after unit round trip")
	}
}
