package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/vm"
)

const kernelSrc = `
double kernel(int n) {
	double s; int i;
	s = 0.0;
	for (i = 0; i < n; i++) {
		s = s + 1.5;
	}
	return s;
}`

func TestAnalyzePipelineEndToEnd(t *testing.T) {
	p, err := core.Analyze("k.c", kernelSrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.File == nil || p.Prog == nil || p.Obj == nil || p.Model == nil {
		t.Fatal("pipeline stage missing")
	}
	met, err := p.Model.Evaluate("kernel", expr.EnvFromInts(map[string]int64{"n": 100}))
	if err != nil {
		t.Fatal(err)
	}
	if met.FPI() != 100 {
		t.Errorf("FPI = %d", met.FPI())
	}
	m := p.NewMachine()
	if _, err := m.Run("kernel", vm.Int(100)); err != nil {
		t.Fatal(err)
	}
	st, _ := m.FuncStatsByName("kernel")
	if int64(st.FPIInclusive()) != met.FPI() {
		t.Errorf("static %d != dynamic %d", met.FPI(), st.FPIInclusive())
	}
}

func TestArtifacts(t *testing.T) {
	p, err := core.Analyze("k.c", kernelSrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dot := p.SourceDot(); !strings.Contains(dot, "SgForStatement") {
		t.Error("source dot missing loop node")
	}
	bdot, err := p.BinaryDot("kernel")
	if err != nil || !strings.Contains(bdot, "SgAsmFunction") {
		t.Errorf("binary dot: %v", err)
	}
	asm, err := p.Disassembly("kernel")
	if err != nil || !strings.Contains(asm, "addsd") {
		t.Errorf("disassembly: %v\n%s", err, asm)
	}
	if py := p.PythonModel(); !strings.Contains(py, "def kernel_1(n):") {
		t.Error("python model missing function")
	}
	if _, err := p.Disassembly("nope"); err == nil {
		t.Error("missing symbol accepted")
	}
	if _, err := p.BinaryDot("nope"); err == nil {
		t.Error("missing symbol accepted")
	}
}

func TestCategoryAPIs(t *testing.T) {
	p, err := core.Analyze("k.c", kernelSrc, core.Options{Arch: arch.Arya()})
	if err != nil {
		t.Fatal(err)
	}
	env := expr.EnvFromInts(map[string]int64{"n": 10})
	ops, err := p.Model.EvaluateOpcodes("kernel", env)
	if err != nil {
		t.Fatal(err)
	}
	fine := core.BucketFine(p.Arch, ops)
	if fine["SSE2 packed arithmetic"] != 10 {
		t.Errorf("fine = %v", fine)
	}
	t2 := core.BucketTableII(ops)
	if t2["SSE2 packed arithmetic instruction"] != 10 {
		t.Errorf("table II = %v", t2)
	}
	var sum int64
	for _, n := range t2 {
		sum += n
	}
	met, _ := p.Model.Evaluate("kernel", env)
	if sum != met.Instrs {
		t.Errorf("category sum %d != total %d", sum, met.Instrs)
	}
}

func TestAnalyzeErrorsPropagate(t *testing.T) {
	cases := []string{
		"int f( {",                      // parse
		"int f(int n) { return f(n); }", // sema (recursion)
		"void f() { g(); }",             // compile (unknown callee)
		"void f(double *x, int n) { int i; for (i = 0; i < n; i++) { if (x[i] > 0.0) { x[i] = 0.0; } } }", // metrics (strict)
	}
	for _, src := range cases {
		if _, err := core.Analyze("bad.c", src, core.Options{}); err == nil {
			t.Errorf("Analyze(%q) succeeded", src)
		}
	}
}

// TestAnalyzeContextCancellation: a dead context stops the pipeline at
// a stage boundary with the context's own error.
func TestAnalyzeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.AnalyzeContext(ctx, "k.c", kernelSrc, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// A live context is the plain Analyze path.
	if _, err := core.AnalyzeContext(context.Background(), "k.c", kernelSrc, core.Options{}); err != nil {
		t.Fatal(err)
	}
}
