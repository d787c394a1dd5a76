package core_test

import (
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/model"
	"mira/internal/parser"
)

// nearLimits is a seed whose literals and loop bounds sit near the
// int64 limits, so iteration counts, strides and their products cross
// the inline rational range and back through polyhedra, metrics and
// the walker.
const nearLimits = `
double edges(double *a, int n) {
	double s; int i; int j; int k;
	s = 0.0;
	for (i = 0; i < 9223372036854775807; i += 4611686018427387904) {
		s = s + 1.5;
	}
	for (j = -9223372036854775807; j < n; j += 3037000499) {
		s = s * 2.0;
	}
	for (i = 0; i < n; i++) {
		for (k = i; k < n; k++) {
			a[k] = s;
		}
		for (k = 0; k < 4294967296; k += 3) {
			a[k] = s;
		}
	}
	for (i = n; i < n + 9223372036854775806; i += 9223372036854775806) {
		s = s - 1.0;
	}
	return s;
}

double outer(double *a, int n) {
	return edges(a, n * 3037000499) + edges(a, -9223372036854775807);
}
`

// elseLadder is a seed whose if/else ladder puts several statements,
// calls and loops under each branch, so sites share the count of their
// branch's context while each branch, its else and each loop below them
// count their own.
const elseLadder = `
double leaf(double v, int m) {
	int i; double t;
	t = v;
	for (i = 0; i < m; i++) {
		t = t * 0.5 + 1.0;
	}
	return t;
}

double ladder(double *a, int n, int k) {
	double s; int i; int j;
	s = 0.0;
	for (i = 0; i < n; i++) {
		if (i < k) {
			s = s + a[i];
			s = s + leaf(a[i], k);
			for (j = i; j < n; j++) {
				a[j] = s + leaf(s, j);
			}
		} else if (i % 3 == 1) {
			s = s - a[i];
			a[i] = leaf(s, n) + leaf(a[i], 2);
		} else if (i != n - 2) {
			for (j = 0; j < i; j++) {
				s = s + a[j] * 2.0;
				if (j < k) {
					s = s + 1.0;
				} else {
					a[j] = leaf(s, i);
				}
			}
			s = s * 0.25;
		} else {
			s = leaf(s, i) + leaf(s, k);
			for (j = 0; j < k; j++) {
				a[j] = s;
			}
		}
		s = s + 0.5;
	}
	return s;
}
`

// nestedReturn is a function returning n under k logical negations: a
// return statement and its expression take two nesting levels, so k =
// parser.MaxNesting-2 sits exactly at the parser's bound.
func nestedReturn(k int) string {
	return "int f(int n) { return " + strings.Repeat("!", k) + "n; }"
}

// FuzzAnalyzeSource runs the whole front end and metrics generation on
// arbitrary MiniC source, outside the engine's panic guard, so any panic
// fails the fuzz. An input that analyzes is then evaluated by the tree
// walker and the compiled model at a small and a near-overflow point,
// where the two must agree on whether they fail and on every count.
// Models that keep an enumerated sum are not evaluated: a sum may
// enumerate up to 50 million points, and a few hundred bytes of source
// can hold one evaluation past the fuzzer's ten-second hang limit.
func FuzzAnalyzeSource(f *testing.F) {
	for _, s := range benchprogs.Bundled() {
		f.Add(s.Src)
	}
	f.Add(nearLimits)
	f.Add(elseLadder)
	f.Add(nestedReturn(parser.MaxNesting - 2))
	f.Add(nestedReturn(parser.MaxNesting - 1))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8<<10 {
			t.Skip("source beyond 8 KiB")
		}
		p, err := core.Analyze("fuzz.c", src, core.Options{})
		if err != nil || enumerates(p.Model) {
			return
		}
		for _, fn := range p.Model.Order {
			cm, err := p.Model.Compile(fn)
			if err != nil {
				continue
			}
			for _, v := range []int64{7, 3037000499} {
				vals := map[string]int64{}
				for _, name := range cm.Params() {
					vals[name] = v
				}
				env := expr.EnvFromInts(vals)
				met, errW := p.Model.Evaluate(fn, env)
				cmet, errC := cm.Eval(env)
				if (errW == nil) != (errC == nil) {
					t.Fatalf("%s at %d: walker err=%v, compiled err=%v", fn, v, errW, errC)
				}
				if errW == nil && met != cmet {
					t.Fatalf("%s at %d: walker %+v != compiled %+v", fn, v, met, cmet)
				}
			}
		}
	})
}

// hasSum reports whether e contains a Sum node.
func hasSum(e expr.Expr) bool {
	switch x := e.(type) {
	case expr.Sum:
		return true
	case expr.Add:
		for _, t := range x.Terms {
			if hasSum(t) {
				return true
			}
		}
	case expr.Mul:
		for _, f := range x.Factors {
			if hasSum(f) {
				return true
			}
		}
	case expr.FloorDiv:
		return hasSum(x.X)
	case expr.Min:
		return hasSum(x.A) || hasSum(x.B)
	case expr.Max:
		return hasSum(x.A) || hasSum(x.B)
	}
	return false
}

// enumerates reports whether any multiplicity or call argument in m keeps
// a Sum node, which evaluation enumerates point by point.
func enumerates(m *model.Model) bool {
	for _, f := range m.Funcs {
		for _, s := range f.Sites {
			if hasSum(s.Mult) {
				return true
			}
		}
		for _, c := range f.Calls {
			if hasSum(c.Mult) {
				return true
			}
			for _, a := range c.Args {
				if hasSum(a) {
					return true
				}
			}
		}
	}
	return false
}

// TestFuzzSeeds checks what the nesting and ladder seeds are for: the
// source at the parser's bound analyzes and the one past it fails, the
// ladder analyzes strictly, and every seed stays under the fuzzer's
// 8 KiB skip.
func TestFuzzSeeds(t *testing.T) {
	for _, src := range []string{elseLadder, nestedReturn(parser.MaxNesting - 2), nestedReturn(parser.MaxNesting - 1)} {
		if len(src) > 8<<10 {
			t.Errorf("seed of %d bytes is past the 8 KiB skip", len(src))
		}
	}
	for _, src := range []string{elseLadder, nestedReturn(parser.MaxNesting - 2)} {
		if _, err := core.Analyze("seed.c", src, core.Options{}); err != nil {
			t.Errorf("seed does not analyze: %v", err)
		}
	}
	if _, err := core.Analyze("seed.c", nestedReturn(parser.MaxNesting-1), core.Options{}); err == nil {
		t.Error("a source one level past the nesting bound analyzed")
	}
}
