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
