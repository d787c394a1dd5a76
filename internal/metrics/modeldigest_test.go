package metrics_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cc"
	"mira/internal/ir"
	"mira/internal/metrics"
	"mira/internal/model"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

var update = flag.Bool("update", false, "rewrite testdata/modeldigests.txt from the current generator")

const modelDigestFile = "testdata/modeldigests.txt"

// modelDigest is the SHA-256 of a rendering of everything the generator
// produces for src, built from the decoded object as the pipeline sees
// it: per function its parameters, annotation parameters and warnings
// (or its error),
// every site in order (position, label, multiplicity, counts and
// per-opcode counts) and every call (callee, position, multiplicity and
// arguments in declared order); then the emitted Python model.
func modelDigest(t *testing.T, name, src string) string {
	t.Helper()
	file, err := parser.ParseFile(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		t.Fatalf("%s: sema: %v", name, err)
	}
	obj, err := cc.Compile(prog, cc.Options{SourceName: name})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	var buf bytes.Buffer
	if err := obj.Encode(&buf); err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	decoded, err := objfile.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	g := metrics.NewGenerator(prog, decoded, metrics.Config{Lenient: true})
	m := &model.Model{SourceName: name, Funcs: map[string]*model.Func{}}
	var b strings.Builder
	for _, q := range prog.FuncOrder {
		fm, warns, err := g.FuncModel(q)
		if err != nil {
			fmt.Fprintf(&b, "func %s error=%q warnings=%q\n", q, err, warns)
			continue
		}
		m.Funcs[q] = fm
		m.Order = append(m.Order, q)
		fmt.Fprintf(&b, "func %s params=%v extern=%t annot=%v warnings=%q\n",
			fm.Name, fm.Params, fm.Extern, fm.AnnotParams, warns)
		for _, s := range fm.Sites {
			fmt.Fprintf(&b, "site %d:%d %q mult=%s flops=%d instrs=%d counts=%v ops=%s\n",
				s.Line, s.Col, s.Label(), s.Mult, s.Flops, s.Instrs, s.Counts, opsString(s.Ops))
		}
		for _, c := range fm.Calls {
			fmt.Fprintf(&b, "call %s %d:%d mult=%s", c.Callee, c.Line, c.Col, c.Mult)
			for _, p := range c.ArgOrder {
				if a := c.Args[p]; a != nil {
					fmt.Fprintf(&b, " %s=%s", p, a)
				} else {
					fmt.Fprintf(&b, " %s=?", p)
				}
			}
			b.WriteString("\n")
		}
	}
	b.WriteString(m.EmitPython())
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// opsString renders per-opcode counts, which are in opcode order.
func opsString(ops []ir.OpN) string {
	var b strings.Builder
	for _, c := range ops {
		fmt.Fprintf(&b, "%d:%d,", c.Op, c.N)
	}
	return b.String()
}

// TestModelDigests pins the model of every front-end corpus program
// (bundled programs and Table I rows at three scales), every example,
// cc's testdata/licm.c and testdata/fold.c, and the br_frac kernel. A
// generator change that is meant to be output-neutral (memoized counts,
// lazy bridges, deferred label rendering) must leave every digest as it
// is; -update rewrites the table after an intended change to the models.
func TestModelDigests(t *testing.T) {
	examples, err := benchprogs.ExampleSources("../../examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no MiniC sources found under examples/")
	}
	corpus := append(benchprogs.Corpus(), examples...)
	for _, name := range []string{"licm", "fold"} {
		src, err := os.ReadFile("../cc/testdata/" + name + ".c")
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, benchprogs.Source{Name: "cc.testdata." + name, Src: string(src)})
	}
	corpus = append(corpus, benchprogs.Source{Name: "brfrac", Src: benchprogs.BrFrac})
	var got strings.Builder
	for _, s := range corpus {
		fmt.Fprintf(&got, "%s %s\n", s.Name, modelDigest(t, s.Name+".c", s.Src))
	}
	if *update {
		if err := os.WriteFile(modelDigestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(modelDigestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		name, sum, _ := strings.Cut(sc.Text(), " ")
		wantLines[name] = sum
	}
	gotNames := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		gotNames[name] = true
		switch w, ok := wantLines[name]; {
		case !ok:
			t.Errorf("%s: no pinned digest (run with -update after checking the change)", name)
		case w != sum:
			t.Errorf("%s: model digest %s, pinned %s", name, sum, w)
		}
	}
	for name := range wantLines {
		if !gotNames[name] {
			t.Errorf("%s: pinned but no longer in the corpus", name)
		}
	}
}
