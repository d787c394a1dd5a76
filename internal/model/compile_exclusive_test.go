package model_test

import (
	"reflect"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/model"
)

// TestCompileExclusiveMatchesWalker checks an exclusive compilation
// against the walker's body-only views: Eval against EvaluateExclusive,
// and EvalOps against the exclusive opcode walk, on the hand-built model
// and on every function of every benchprogs program. At a point with an
// unbound parameter, EvalOps and Eval must fail with the walker's own
// error string.
func TestCompileExclusiveMatchesWalker(t *testing.T) {
	m := model.BuildModel()
	env := expr.EnvFromInts(map[string]int64{"n": 9})
	cm, err := m.CompileExclusive("outer")
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.EvaluateExclusive("outer", env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("exclusive: walker %+v != compiled %+v", want, got)
	}
	if got.FPI() != 0 {
		t.Fatalf("exclusive outer should have no FPI (all in callee), got %d", got.FPI())
	}
	inner, err := m.CompileExclusive("inner")
	if err != nil {
		t.Fatal(err)
	}
	if !checkUnboundErrors(t, m, "inner", inner) {
		t.Fatal("inner: walker evaluated with m unbound")
	}

	programs := map[string]string{
		"stream": benchprogs.Stream, "dgemm": benchprogs.Dgemm, "minife": benchprogs.MiniFE,
		"fig5": benchprogs.Fig5, "listing1": benchprogs.Listing1, "listing2": benchprogs.Listing2,
		"listing4": benchprogs.Listing4, "listing5": benchprogs.Listing5, "ablation": benchprogs.Ablation,
	}
	bound := expr.EnvFromInts(map[string]int64{
		"n": 60, "nrep": 3, "nx": 6, "ny": 6, "nz": 6, "max_iter": 5, "nnz_row": 19,
	})
	unbound := 0
	for name, src := range programs {
		p, err := core.Analyze(name+".c", src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, fn := range p.Model.Order {
			cmx, err := p.Model.CompileExclusive(fn)
			if err != nil {
				t.Fatalf("%s %s: %v", name, fn, err)
			}
			want, errW := p.Model.EvaluateOpcodesExclusive(fn, bound)
			got, errC := cmx.EvalOps(bound)
			if errString(errW) != errString(errC) {
				t.Errorf("%s %s: exclusive EvalOps err %q, walker err %q", name, fn, errString(errC), errString(errW))
			} else if errW == nil && !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: exclusive EvalOps %v != walker %v", name, fn, got, want)
			}
			if checkUnboundErrors(t, p.Model, fn, cmx) {
				unbound++
			}
		}
	}
	if unbound == 0 {
		t.Fatal("no benchprogs function failed with its parameters unbound: the error check never ran")
	}
}

// checkUnboundErrors evaluates an exclusive compilation with every
// parameter unbound. Where the walker fails, Eval and EvalOps must both
// fail with the walker's error string; it reports whether the walker
// failed.
func checkUnboundErrors(t *testing.T, m *model.Model, fn string, cm *model.CompiledModel) bool {
	t.Helper()
	_, errW := m.EvaluateExclusive(fn, expr.Env{})
	_, errE := cm.Eval(expr.Env{})
	_, errO := cm.EvalOps(expr.Env{})
	if errString(errE) != errString(errW) || errString(errO) != errString(errW) {
		t.Errorf("%s unbound: Eval err %q, EvalOps err %q, want walker err %q",
			fn, errString(errE), errString(errO), errString(errW))
	}
	return errW != nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
