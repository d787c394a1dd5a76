package engine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/model"
)

// reconcilePrograms lists every embedded workload plus a br_frac-
// annotated kernel: fractional multiplicities are where truncate-vs-
// round (and compiled-vs-walker rounding-order) divergences bite.
var reconcilePrograms = []struct {
	name   string
	source string
}{
	{"stream.c", benchprogs.Stream},
	{"dgemm.c", benchprogs.Dgemm},
	{"minife.c", benchprogs.MiniFE},
	{"fig5.c", benchprogs.Fig5},
	{"listing1.c", benchprogs.Listing1},
	{"listing2.c", benchprogs.Listing2},
	{"listing4.c", benchprogs.Listing4},
	{"listing5.c", benchprogs.Listing5},
	{"ablation.c", benchprogs.Ablation},
	{"brfrac.c", benchprogs.BrFrac},
}

// TestEvaluateOpcodesReconciles checks, for every benchprogs program and
// every function its model defines, that the two model walkers agree:
// the sum of EvaluateOpcodes' per-opcode counts must equal Evaluate's
// instruction total, and the two must succeed or fail together. This is
// the guard against the walkers drifting apart (rounding, argument
// binding) — a divergence here poisons Table II and every persisted
// cache entry derived from it.
func TestEvaluateOpcodesReconciles(t *testing.T) {
	// A generous environment superset: every parameter any benchprogs
	// function declares, at sizes small enough to enumerate quickly.
	env := expr.EnvFromInts(map[string]int64{
		"n": 60, "nrep": 3,
		"nx": 6, "ny": 6, "nz": 6,
		"max_iter": 5, "nnz_row": 19,
	})
	for _, prog := range reconcilePrograms {
		p, err := core.Analyze(prog.name, prog.source, core.Options{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", prog.name, err)
		}
		for _, fn := range p.Model.Order {
			met, errEval := p.Model.Evaluate(fn, env)
			ops, errOps := p.Model.EvaluateOpcodes(fn, env)
			if (errEval == nil) != (errOps == nil) {
				t.Errorf("%s %s: walkers disagree on evaluability: Evaluate err=%v, EvaluateOpcodes err=%v",
					prog.name, fn, errEval, errOps)
				continue
			}
			if errEval != nil {
				continue // both failed (e.g. unresolved call argument): consistent
			}
			var total int64
			for _, c := range ops {
				total += c
			}
			if total != met.Instrs {
				t.Errorf("%s %s: opcode total %d != Evaluate instrs %d",
					prog.name, fn, total, met.Instrs)
			}
		}
	}
}

// TestCompiledReconciles is the compiled-path property test: for every
// benchprogs program, every function its model defines, and a grid of
// environments (small, large, and degenerate-zero sizes), the symbolic
// compilation must be byte-identical to the tree walkers — same
// metrics, same per-opcode counts, exclusive included, and the two
// paths must succeed or fail together. A divergence here would poison
// every sweep built on the compiled path.
func TestCompiledReconciles(t *testing.T) {
	grid := []map[string]int64{
		{"n": 0, "nrep": 0, "nx": 0, "ny": 0, "nz": 0, "max_iter": 0, "nnz_row": 0},
		{"n": 1, "nrep": 1, "nx": 1, "ny": 1, "nz": 1, "max_iter": 1, "nnz_row": 1},
		{"n": 7, "nrep": 2, "nx": 2, "ny": 3, "nz": 4, "max_iter": 3, "nnz_row": 9},
		{"n": 60, "nrep": 3, "nx": 6, "ny": 6, "nz": 6, "max_iter": 5, "nnz_row": 19},
		// Large sizes stress the closed forms; the brick stays modest
		// because miniFE's assemble makes the *walker* enumerate sums.
		{"n": 1_000_000, "nrep": 10, "nx": 10, "ny": 9, "nz": 8, "max_iter": 20, "nnz_row": 25},
	}
	for _, prog := range reconcilePrograms {
		p, err := core.Analyze(prog.name, prog.source, core.Options{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", prog.name, err)
		}
		for _, fn := range p.Model.Order {
			cm, errC := p.Model.Compile(fn)
			cmx, errCX := p.Model.CompileExclusive(fn)
			if errC != nil || errCX != nil {
				t.Errorf("%s %s: compile errs %v / %v", prog.name, fn, errC, errCX)
				continue
			}
			for gi, point := range grid {
				env := expr.EnvFromInts(point)

				met, errW := p.Model.Evaluate(fn, env)
				cmet, errE := cm.Eval(env)
				if (errW == nil) != (errE == nil) {
					t.Errorf("%s %s grid %d: evaluability diverges: walker %v, compiled %v",
						prog.name, fn, gi, errW, errE)
					continue
				}
				if errW == nil && met != cmet {
					t.Errorf("%s %s grid %d: walker %+v != compiled %+v", prog.name, fn, gi, met, cmet)
				}

				metx, errWX := p.Model.EvaluateExclusive(fn, env)
				cmetx, errEX := cmx.Eval(env)
				if (errWX == nil) != (errEX == nil) {
					t.Errorf("%s %s grid %d: exclusive evaluability diverges: walker %v, compiled %v",
						prog.name, fn, gi, errWX, errEX)
				} else if errWX == nil && metx != cmetx {
					t.Errorf("%s %s grid %d: exclusive walker %+v != compiled %+v", prog.name, fn, gi, metx, cmetx)
				}

				ops, errWO := p.Model.EvaluateOpcodes(fn, env)
				cops, errEO := cm.EvalOps(env)
				if (errWO == nil) != (errEO == nil) {
					t.Errorf("%s %s grid %d: opcode evaluability diverges: walker %v, compiled %v",
						prog.name, fn, gi, errWO, errEO)
					continue
				}
				if errWO != nil {
					continue
				}
				if len(ops) != len(cops) {
					t.Errorf("%s %s grid %d: opcode key sets differ: walker %d keys, compiled %d",
						prog.name, fn, gi, len(ops), len(cops))
					continue
				}
				for op, n := range ops {
					if cops[op] != n {
						t.Errorf("%s %s grid %d: ops[%v]: walker %d != compiled %d",
							prog.name, fn, gi, op, n, cops[op])
					}
				}
			}
		}
	}
}

// pyDriver imports the model module named by argv[1] and, for each
// (function, positional args, environment) triple read as JSON from
// stdin, sets the environment as module-level variables (where the
// module reads names its functions do not take, such as a callee's
// annotation parameters) and calls the function. It prints each result's
// category totals as strings, so an inexact float total cannot pass for
// an integer.
const pyDriver = `import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("model", sys.argv[1])
m = importlib.util.module_from_spec(spec)
spec.loader.exec_module(m)
out = []
for fn, args, env in json.load(sys.stdin):
    vars(m).update(env)
    out.append({k: str(v) for k, v in getattr(m, fn)(*args).items()})
json.dump(out, sys.stdout)
`

// TestPythonModelMatchesEvaluate runs the emitted Python module of every
// reconcile program under python3 at two small sizes and requires each
// function's per-category totals to equal Model.Evaluate's. The br_frac
// kernel is the case that needs exact fractions and Go's rounding of
// fractional multiplicities.
func TestPythonModelMatchesEvaluate(t *testing.T) {
	python, err := exec.LookPath("python3")
	if err != nil {
		t.Skipf("emitted models not run: %v", err)
	}
	// y2 is fig5's annotation parameter, x_19 and y_19 its unresolved
	// call arguments.
	points := []map[string]int64{
		{"n": 7, "nrep": 2, "nx": 2, "ny": 3, "nz": 4, "max_iter": 3, "nnz_row": 9, "y2": 5, "x_19": 3, "y_19": 4},
		{"n": 10, "nrep": 3, "nx": 3, "ny": 2, "nz": 2, "max_iter": 2, "nnz_row": 7, "y2": 2, "x_19": 6, "y_19": 1},
	}
	dir := t.TempDir()
	for _, prog := range reconcilePrograms {
		p, err := core.Analyze(prog.name, prog.source, core.Options{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", prog.name, err)
		}
		module := filepath.Join(dir, strings.TrimSuffix(prog.name, ".c")+".py")
		if err := os.WriteFile(module, []byte(p.PythonModel()), 0o644); err != nil {
			t.Fatal(err)
		}
		calls := [][]any{}
		var labels []string
		var want []model.Metrics
		for _, fn := range p.Model.Order {
			f := p.Model.Funcs[fn]
			for _, point := range points {
				met, err := p.Model.Evaluate(fn, expr.EnvFromInts(point))
				if f.Extern || err != nil {
					continue // an unresolved argument needs user input in Python too
				}
				args := []any{}
				for _, name := range append(append([]string{}, f.Params...), f.AnnotParams...) {
					if v, ok := point[name]; ok {
						args = append(args, v)
					} else {
						args = append(args, nil)
					}
				}
				calls = append(calls, []any{model.PyFuncName(f), args, point})
				labels = append(labels, fmt.Sprintf("%s %s n=%d", prog.name, fn, point["n"]))
				want = append(want, met)
			}
		}
		in, err := json.Marshal(calls)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(python, "-c", pyDriver, module)
		cmd.Stdin = bytes.NewReader(in)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: python3: %v\n%s", prog.name, err, stderr.String())
		}
		var got []map[string]string
		if err := json.Unmarshal(stdout, &got); err != nil || len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d (%v)", prog.name, len(got), len(want), err)
		}
		for i, met := range want {
			for c := range ir.NumCategories {
				w, g := strconv.FormatInt(met.ByCategory[c], 10), got[i][c.String()]
				if g == "" {
					g = "0"
				}
				if g != w {
					t.Errorf("%s: %s = %s in Python, %s in Go", labels[i], c, g, w)
				}
			}
		}
	}
}
