package core_test

import (
	"strings"
	"testing"

	"mira/internal/arch"
	"mira/internal/core"
)

// keySrc has a global with an initializer, a class with fields and a
// method, a caller chain, and comments between and after declarations.
const keySrc = `// file header comment
double scale = 2.0;
int table[4];

class Vec {
public:
	double x;
	double y;
	double norm() { return x * x + y * y; }
};

/* between declarations */
double axpy(double *a, double *b, int n) {
	int i;
	for (i = 0; i < n; i++) {
		a[i] = a[i] + scale * b[i];
	}
	return a[0];
} // trailing comment

double driver(double *a, double *b, int n) {
	return axpy(a, b, n) + axpy(b, a, n);
}
`

// TestFuncKeyInputs pins what a function key depends on: the key is a
// pure function of the program and the options, it ignores comments
// outside every declaration that move no line, and it covers every
// global, every class field, and every analysis option.
func TestFuncKeyInputs(t *testing.T) {
	arya := arch.Arya()
	keysOf := func(src string, opts core.Options) map[string]string {
		t.Helper()
		return core.FuncKeys(mustProgram(t, "k.c", src), opts)
	}
	edit := func(old, new string) string {
		t.Helper()
		if !strings.Contains(keySrc, old) {
			t.Fatalf("%q not in keySrc", old)
		}
		return strings.Replace(keySrc, old, new, 1)
	}
	base := keysOf(keySrc, core.Options{})
	if len(base) != 3 {
		t.Fatalf("keys for %d functions, want 3: %v", len(base), base)
	}

	cases := []struct {
		name string
		src  string
		opts core.Options
		same bool // every key equal to base; otherwise every key differs
	}{
		{"reparse", keySrc, core.Options{}, true},
		{"header comment text", edit("file header comment", "a different header, same line"), core.Options{}, true},
		{"comment between declarations", edit("/* between declarations */", "/* rewritten comment text */"), core.Options{}, true},
		{"comment after closing brace", edit("} // trailing comment", "} /* other */ // and more"), core.Options{}, true},
		{"global initializer", edit("scale = 2.0", "scale = 3.0"), core.Options{}, false},
		{"class field", edit("double y;", "int y;"), core.Options{}, false},
		{"DisableOpt", keySrc, core.Options{DisableOpt: true}, false},
		{"Lenient", keySrc, core.Options{Lenient: true}, false},
		{"arch", keySrc, core.Options{Arch: arya}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := keysOf(tc.src, tc.opts)
			if len(got) != len(base) {
				t.Fatalf("keys for %d functions, want %d", len(got), len(base))
			}
			for q, k := range base {
				if same := got[q] == k; same != tc.same {
					t.Errorf("%s: key equal to base = %t, want %t", q, same, tc.same)
				}
			}
		})
	}
}
