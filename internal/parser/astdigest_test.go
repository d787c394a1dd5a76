package parser_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/parser"
)

var update = flag.Bool("update", false, "rewrite testdata/astdigests.txt from the current parser")

const astDigestFile = "testdata/astdigests.txt"

// dumpValue writes v and everything it reaches: the dynamic type of every
// interface, every struct field by name, every slice's nil-ness and
// length, and every scalar exactly (floats by their bits). The AST has no
// cycles, so the walk ends.
func dumpValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		fmt.Fprintf(w, "%s:", v.Elem().Type())
		dumpValue(w, v.Elem())
	case reflect.Pointer:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		io.WriteString(w, "&")
		dumpValue(w, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type())
		for i := range v.NumField() {
			fmt.Fprintf(w, "%s=", v.Type().Field(i).Name)
			dumpValue(w, v.Field(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "}")
	case reflect.Slice:
		if v.IsNil() {
			io.WriteString(w, "[nil]")
			return
		}
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := range v.Len() {
			dumpValue(w, v.Index(i))
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case reflect.Map:
		// No AST node holds a map; one appearing here must be pinned
		// deliberately, with a key order.
		panic(fmt.Sprintf("ast dump: unexpected map %s", v.Type()))
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "f%x", math.Float64bits(v.Float()))
	case reflect.Bool:
		fmt.Fprintf(w, "%t", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%d", v.Uint())
	default:
		panic(fmt.Sprintf("ast dump: unhandled kind %s", v.Kind()))
	}
}

// astDigest is the SHA-256 of the reflective dump of src's AST.
func astDigest(t *testing.T, name, src string) string {
	t.Helper()
	file, err := parser.ParseFile(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	h := sha256.New()
	w := bufio.NewWriter(h)
	dumpValue(w, reflect.ValueOf(file))
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// TestASTDigests pins the AST of every corpus program, every example and
// every .c file under cc's testdata: node types, fields, positions and
// declaration source spans. A parser change that is meant to keep its
// output (token plumbing, precedence climbing, list building) must leave
// every digest as it is; -update rewrites the table after an intended
// change to the tree.
func TestASTDigests(t *testing.T) {
	examples, err := benchprogs.ExampleSources("../../examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no MiniC sources found under examples/")
	}
	corpus := append(benchprogs.Corpus(), examples...)
	ccFiles, err := filepath.Glob("../cc/testdata/*.c")
	if err != nil || len(ccFiles) == 0 {
		t.Fatalf("no cc testdata sources: %v", err)
	}
	for _, path := range ccFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, benchprogs.Source{Name: "cc.testdata." + strings.TrimSuffix(filepath.Base(path), ".c"), Src: string(src)})
	}
	var got strings.Builder
	for _, s := range corpus {
		fmt.Fprintf(&got, "%s %s\n", s.Name, astDigest(t, s.Name+".c", s.Src))
	}
	if *update {
		if err := os.WriteFile(astDigestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(astDigestFile)
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
			t.Errorf("%s: AST digest %s, pinned %s", name, sum, w)
		}
	}
	for name := range wantLines {
		if !gotNames[name] {
			t.Errorf("%s: pinned but no longer in the corpus", name)
		}
	}
}
