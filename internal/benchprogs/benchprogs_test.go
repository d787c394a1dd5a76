package benchprogs_test

import (
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/vm"
)

// TestAllSourcesAnalyze: every embedded workload goes through the full
// pipeline without errors.
func TestAllSourcesAnalyze(t *testing.T) {
	for _, s := range benchprogs.Bundled() {
		if _, err := core.Analyze(s.Name+".c", s.Src, core.Options{}); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestListingsExecuteAndValidate: the paper's listing kernels produce the
// known lattice-point counts both dynamically and statically.
func TestListingsExecuteAndValidate(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		entry string
		want  float64 // accumulated 1.0 per innermost visit
	}{
		{"listing1", benchprogs.Listing1, "listing1", 10},
		{"listing2", benchprogs.Listing2, "listing2", 14},
		{"listing4", benchprogs.Listing4, "listing4", 8},
		{"listing5", benchprogs.Listing5, "listing5", 11},
	}
	for _, c := range cases {
		p, err := core.Analyze(c.name+".c", c.src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := p.NewMachine()
		v, err := m.Run(c.entry)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if v.F != c.want {
			t.Errorf("%s: result = %g, want %g", c.name, v.F, c.want)
		}
		// Static FPI equals the dynamic count exactly (one ADDSD per visit
		// is the only FP arithmetic).
		st, _ := m.FuncStatsByName(c.entry)
		met, err := p.Model.Evaluate(c.entry, nil)
		if err != nil {
			t.Fatalf("%s static: %v", c.name, err)
		}
		if met.FPI() != int64(st.FPIInclusive()) {
			t.Errorf("%s: static FPI %d != dynamic %d", c.name, met.FPI(), st.FPIInclusive())
		}
		if met.FPI() != int64(c.want) {
			t.Errorf("%s: FPI = %d, want %g", c.name, met.FPI(), c.want)
		}
	}
}

// TestFig5PythonArtifact: the Fig. 5 example generates the paper-style
// Python model with the annotation parameter threaded through.
func TestFig5PythonArtifact(t *testing.T) {
	p, err := core.Analyze("fig5.c", benchprogs.Fig5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	py := p.PythonModel()
	for _, want := range []string{"def A_foo_2(x, y, y2):", "def main_0(", "handle_function_call"} {
		if !strings.Contains(py, want) {
			t.Errorf("missing %q in:\n%s", want, py)
		}
	}
	// The annotated model evaluates with y2 supplied (paper: "y_16 ...
	// specified by users during model evaluation").
	met, err := p.Model.Evaluate("A::foo", expr.EnvFromInts(map[string]int64{"y2": 15}))
	if err != nil {
		t.Fatal(err)
	}
	// 16 outer iterations x 16 inner (y2=15, inclusive): 16*16 adds.
	if met.FPI() != 256 {
		t.Errorf("FPI = %d, want 256", met.FPI())
	}
}

// TestMiniFEConvergence: the CG solver actually solves the system (residual
// shrinks), guarding against a VM or codegen regression that would leave
// the validation comparing garbage runs.
func TestMiniFEConvergence(t *testing.T) {
	p, err := core.Analyze("minife.c", benchprogs.MiniFE, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine()
	n := int64(4 * 4 * 4)
	maxNNZ := uint64(27 * n)
	rowStart := m.Alloc(uint64(n + 1))
	cols := m.Alloc(maxNNZ)
	vals := m.Alloc(maxNNZ)
	A := m.Alloc(4)
	m.SetI(A+0, n)
	m.SetI(A+1, int64(rowStart))
	m.SetI(A+2, int64(cols))
	m.SetI(A+3, int64(vals))
	mkVec := func() uint64 {
		coefs := m.Alloc(uint64(n))
		v := m.Alloc(2)
		m.SetI(v+0, n)
		m.SetI(v+1, int64(coefs))
		return v
	}
	b, x, r, pp, ap := mkVec(), mkVec(), mkVec(), mkVec(), mkVec()
	ret, err := m.Run("minife",
		vm.Int(4), vm.Int(4), vm.Int(4), vm.Int(30),
		vm.Int(int64(A)), vm.Int(int64(b)), vm.Int(int64(x)),
		vm.Int(int64(r)), vm.Int(int64(pp)), vm.Int(int64(ap)))
	if err != nil {
		t.Fatal(err)
	}
	// After 30 CG iterations on a 64-row SPD stencil system the residual
	// norm must be tiny.
	if ret.F > 1e-6 {
		t.Errorf("CG residual after 30 iterations = %g, not converged", ret.F)
	}
}
