package cc_test

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
	"mira/internal/parser"
	"mira/internal/sema"
)

var update = flag.Bool("update", false, "rewrite testdata/objdigests.txt from the current compiler")

const digestFile = "testdata/objdigests.txt"

// objDigest is the SHA-256 of the encoded object file that the default
// (optimizing) compiler makes from src.
func objDigest(t *testing.T, name, src string) string {
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
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestObjectDigests pins the object bytes of every bundled program, every
// example, each Table I row at three scales, testdata/licm.c and
// testdata/fold.c. A
// compiler change that is meant to be output-neutral (LICM bookkeeping,
// literal parsing) must leave every digest as it is; -update rewrites the
// table after an intended change to the generated code.
func TestObjectDigests(t *testing.T) {
	examples, err := benchprogs.ExampleSources("../../examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no MiniC sources found under examples/")
	}
	corpus := append(benchprogs.Corpus(), examples...)
	for _, name := range []string{"licm", "fold"} {
		src, err := os.ReadFile("testdata/" + name + ".c")
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, benchprogs.Source{Name: "testdata." + name, Src: string(src)})
	}
	var got strings.Builder
	for _, s := range corpus {
		fmt.Fprintf(&got, "%s %s\n", s.Name, objDigest(t, s.Name+".c", s.Src))
	}
	if *update {
		if err := os.WriteFile(digestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
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
			t.Errorf("%s: object digest %s, pinned %s", name, sum, w)
		}
	}
	for name := range wantLines {
		if !gotNames[name] {
			t.Errorf("%s: pinned but no longer in the corpus", name)
		}
	}
}
