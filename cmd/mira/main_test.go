package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mira"
	"mira/internal/benchprogs"
)

// runMira runs the command on args and returns its exit code, stdout
// and stderr.
func runMira(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestEmitKinds drives every -emit kind through run on the bundled
// STREAM program: each prints its artifact and exits 0, an empty -fn
// prints asm and dot-bin for every symbol in object order, and an
// unknown kind exits 1 naming it.
func TestEmitKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.c")
	if err := os.WriteFile(path, []byte(benchprogs.Stream), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := mira.Analyze(path, benchprogs.Stream, mira.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj := res.Pipeline().Obj
	if len(obj.Syms) < 2 {
		t.Fatalf("stream.c has %d symbols, want several", len(obj.Syms))
	}
	// each renders fn's single-function artifact through run.
	each := func(kind, fn string) string {
		t.Helper()
		code, out, errOut := runMira(t, "-emit", kind, "-fn", fn, path)
		if code != 0 {
			t.Fatalf("-emit %s -fn %s: exit %d: %s", kind, fn, code, errOut)
		}
		return out
	}
	var allAsm, allDot strings.Builder
	for _, sym := range obj.Syms {
		allAsm.WriteString(each("asm", sym.Name) + "\n")
		allDot.WriteString(each("dot-bin", sym.Name))
	}

	for _, c := range []struct {
		name string
		args []string
		want []string // substrings of stdout, in order
		all  string   // when set, the exact stdout
	}{
		{name: "model", args: []string{"-fn", "stream", "-args", "n=1000"}, want: []string{
			"Static metrics for stream (n=1000):\n",
			"  Total instructions                       410546\n",
			"  Floating-point instructions (FPI)        40000\n",
			"  Floating-point operations                40000\n",
		}},
		{name: "python", want: []string{"# Performance model generated by Mira from " + path, "def stream_4(a, b, c, n):"}},
		{name: "dot-src", want: []string{"digraph ast {", `"SgSourceFile ` + path + `"`}},
		{name: "dot-bin", args: []string{"-fn", "stream"}, want: []string{"digraph binast {", `"SgAsmFunction stream"`}},
		{name: "asm", args: []string{"-fn", "stream"}, want: []string{"stream:  (", "; line 35:7"}},
		{name: "lines", want: []string{
			fmt.Sprintf("line table (%d rows):\n", len(obj.Line.Rows)),
			fmt.Sprintf("  addr %6d -> %d:%d\n", obj.Line.Rows[0].Addr, obj.Line.Rows[0].Line, obj.Line.Rows[0].Col),
		}},
		{name: "asm", args: []string{"-fn", ""}, all: allAsm.String()},
		{name: "dot-bin", args: []string{"-fn", ""}, all: allDot.String()},
	} {
		args := append([]string{"-emit", c.name}, c.args...)
		code, out, errOut := runMira(t, append(args, path)...)
		if code != 0 {
			t.Errorf("%v: exit %d: %s", args, code, errOut)
			continue
		}
		if c.all != "" && out != c.all {
			t.Errorf("%v printed\n%s\nwant every symbol in object order:\n%s", args, out, c.all)
		}
		rest := out
		for _, w := range c.want {
			i := strings.Index(rest, w)
			if i < 0 {
				t.Errorf("%v: %q missing (or out of order) in\n%s", args, w, out)
				break
			}
			rest = rest[i+len(w):]
		}
	}
	if n := strings.Count(allDot.String(), "digraph binast {"); n != len(obj.Syms) {
		t.Errorf("-emit dot-bin -fn '' prints %d graphs, want %d", n, len(obj.Syms))
	}

	if code, out, errOut := runMira(t, "-emit", "bogus", path); code != 1 || out != "" || !strings.Contains(errOut, `unknown -emit kind "bogus"`) {
		t.Errorf("-emit bogus: exit %d, stdout %q, stderr %q; want exit 1 naming the kind", code, out, errOut)
	}
	if code, _, errOut := runMira(t, "-fn", "stream", path); code != 1 || !strings.Contains(errOut, `unbound parameter "n"`) {
		t.Errorf("-emit model with n unbound: exit %d, stderr %q; want exit 1 naming n", code, errOut)
	}
	if code, _, _ := runMira(t, "-emit", "asm", "-fn", "nosuch", path); code != 1 {
		t.Errorf("-emit asm -fn nosuch: exit %d, want 1", code)
	}
	if code, _, _ := runMira(t, "-emit", "model"); code != 2 {
		t.Errorf("no file: exit %d, want 2", code)
	}
}

// TestWriteModelTiedCategories pins the category order of -emit model:
// a copy loop's integer arithmetic and SSE2 data movement counts tie,
// and tied rows must print by name on every run.
func TestWriteModelTiedCategories(t *testing.T) {
	const src = `double f(double *a, double *b, int n) {
	int i;
	for (i = 0; i < n; i++) {
		a[i] = b[i];
	}
	return a[0];
}`
	res, err := mira.Analyze("copy.c", src, mira.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for run := 0; run < 20; run++ {
		var sb strings.Builder
		if err := writeModel(context.Background(), &sb, res, "f", "n=100"); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", run, sb.String(), first)
		}
	}
	ints := strings.Index(first, "Integer arithmetic instruction")
	sse := strings.Index(first, "SSE2 data movement instruction")
	if ints < 0 || sse < 0 {
		t.Fatalf("tied categories missing from\n%s", first)
	}
	if ints > sse {
		t.Errorf("tied categories out of name order:\n%s", first)
	}
	if !strings.Contains(first, "Integer arithmetic instruction           201\n") {
		t.Errorf("integer arithmetic count is not the tied 201:\n%s", first)
	}
}

// TestParseArgs pins the -args grammar: comma-separated name=value
// bindings, each name bound once and non-empty, each value an integer.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		in      string
		want    map[string]string // name -> bound value; nil on error
		wantErr string
	}{
		{in: "", want: map[string]string{}},
		{in: "n=5", want: map[string]string{"n": "5"}},
		{in: "n=5, m=-7", want: map[string]string{"n": "5", "m": "-7"}},
		{in: "n=5,n=7", wantErr: `parameter "n" bound twice`},
		{in: "=5", wantErr: "empty parameter name"},
		{in: "n=5,=7", wantErr: "empty parameter name"},
		{in: "n=x", wantErr: "bad value"},
		{in: "n", wantErr: "want name=value"},
	}
	for _, c := range cases {
		env, err := parseArgs(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseArgs(%q) error = %v, want one containing %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseArgs(%q): %v", c.in, err)
			continue
		}
		if len(env) != len(c.want) {
			t.Errorf("parseArgs(%q) bound %d names, want %d", c.in, len(env), len(c.want))
		}
		for name, v := range c.want {
			if got, ok := env[name]; !ok || got.String() != v {
				t.Errorf("parseArgs(%q)[%q] = %v (bound %v), want %s", c.in, name, got, ok, v)
			}
		}
	}
}
