package main

import (
	"strings"
	"testing"

	"mira"
)

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
		if err := writeModel(&sb, res, "f", "n=100"); err != nil {
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
