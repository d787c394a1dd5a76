package model_test

import (
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/expr"
)

// BenchmarkCompiledEval times one point of a compiled evaluation, the
// per-point cost of a sweep, on miniFE's cg_solve (the deepest call tree
// in the suite). The points cycle through 64 problem sizes built once.
func BenchmarkCompiledEval(b *testing.B) {
	p, err := core.Analyze("minife.c", benchprogs.MiniFE, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cm, err := p.Model.Compile("cg_solve")
	if err != nil {
		b.Fatal(err)
	}
	envs := make([]expr.Env, 64)
	for i := range envs {
		env := map[string]int64{}
		for _, name := range cm.Params() {
			env[name] = int64(1000 + 37*i)
		}
		envs[i] = expr.EnvFromInts(env)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := cm.Eval(envs[i%len(envs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
