package main

import (
	"bytes"
	"context"
	"fmt"

	"mira/internal/ast"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/model"
	"mira/internal/vm"
)

// smallEnv is the size point the VM check runs at: small enough that the
// VM executes every checked function in milliseconds.
func smallEnv(family string) map[string]int64 {
	if family == "dgemm" {
		return map[string]int64{"n": 4, "nrep": 2}
	}
	return map[string]int64{"n": 8, "nrep": 2}
}

// vmArgs binds a function's parameters for a VM run: integers from env,
// doubles to 1.5, and every double pointer to a fresh array large enough
// for an n*n matrix. ok is false for parameter types the generic binder
// cannot build (class values).
func vmArgs(m *vm.Machine, d *ast.FuncDecl, env map[string]int64) ([]vm.Value, bool) {
	n := env["n"]
	words := uint64(n*n + 64)
	var args []vm.Value
	for _, prm := range d.Params {
		t := prm.Type
		switch {
		case (t.Ptr == 1 || prm.IsArray) && t.Kind == ast.Double:
			a := m.Alloc(words)
			for i := uint64(0); i < words; i++ {
				m.SetF(a+i, 1.0)
			}
			args = append(args, vm.Int(int64(a)))
		case t.Ptr == 0 && !prm.IsArray && t.Kind == ast.Int:
			v, ok := env[prm.Name]
			if !ok {
				return nil, false
			}
			args = append(args, vm.Int(v))
		case t.Ptr == 0 && !prm.IsArray && t.Kind == ast.Double:
			args = append(args, vm.Float(1.5))
		default:
			return nil, false
		}
	}
	return args, true
}

// threeWay checks one program the FuzzThreeWayEvaluators way: for every
// function the VM can run at a small size, the daemon's /query answer,
// the in-process tree walker, the compiled model and the VM's executed
// inclusive instruction and FPI counts must agree exactly. It returns
// the number of functions checked.
func threeWay(ctx context.Context, d *daemon, key, name, src, family string) (int, error) {
	p, err := core.Analyze(name, src, core.Options{})
	if err != nil {
		return 0, err
	}
	env := smallEnv(family)
	checked := 0
	for _, fn := range p.Model.Order {
		decl := p.Prog.Funcs[fn].Decl
		if decl.IsExtern {
			continue
		}
		bound := true
		for _, prm := range p.Model.Funcs[fn].FreeParams() {
			if _, ok := env[prm]; !ok {
				bound = false
			}
		}
		m := p.NewMachine()
		args, ok := vmArgs(m, decl, env)
		if !ok || !bound {
			continue
		}
		e := expr.EnvFromInts(env)
		walk, err := p.Model.Evaluate(fn, e)
		if err != nil {
			return checked, fmt.Errorf("%s %s: walker: %v", name, fn, err)
		}
		cm, err := p.Model.Compile(fn)
		if err != nil {
			return checked, fmt.Errorf("%s %s: compile: %v", name, fn, err)
		}
		comp, err := cm.Eval(e)
		if err != nil {
			return checked, fmt.Errorf("%s %s: compiled eval: %v", name, fn, err)
		}
		if _, err := m.Run(fn, args...); err != nil {
			return checked, fmt.Errorf("%s %s: vm: %v", name, fn, err)
		}
		st, _ := m.FuncStatsByName(fn)
		req := map[string]any{"queries": []wireQuery{{Fn: fn, Env: env, Kind: "static"}}}
		if key != "" {
			req["key"] = key
		} else {
			req["name"], req["source"] = name, src
		}
		var q queryWire
		if _, _, err := d.postJSON(ctx, "/query", req, &q); err != nil {
			return checked, fmt.Errorf("%s %s: daemon: %v", name, fn, err)
		}
		if len(q.Results) != 1 || q.Results[0].Metrics == nil {
			return checked, fmt.Errorf("%s %s: daemon answered %+v", name, fn, q.Results)
		}
		got := *q.Results[0].Metrics
		want := metricsWire{Instrs: walk.Instrs, Flops: walk.Flops, FPI: walk.FPI()}
		switch {
		case walk != comp:
			return checked, fmt.Errorf("%s %s: walker %+v != compiled %+v", name, fn, walk, comp)
		case got != want:
			return checked, fmt.Errorf("%s %s: daemon %+v != walker %+v", name, fn, got, want)
		case uint64(walk.Instrs) != st.TotalInclusive() || uint64(walk.FPI()) != st.FPIInclusive():
			return checked, fmt.Errorf("%s %s: static instrs/FPI %d/%d != vm %d/%d", name, fn,
				walk.Instrs, walk.FPI(), st.TotalInclusive(), st.FPIInclusive())
		}
		checked++
	}
	return checked, nil
}

// checkAnswers runs the workload's after-phase checks and returns how
// many answers they compared.
func (s *session) checkAnswers(ctx context.Context) (int, error) {
	checked := 0
	switch s.pl.workload {
	case "analyze", "edit":
		for _, o := range s.vmOps {
			n, err := threeWay(ctx, s.d, "", o.name, o.src, o.family)
			if err != nil {
				return checked, err
			}
			checked += n
		}
	case "query", "sweep":
		for i, p := range s.pl.progs {
			if !p.vm {
				continue
			}
			n, err := threeWay(ctx, s.d, s.keys[i], p.name, p.src, p.family)
			if err != nil {
				return checked, err
			}
			checked += n
		}
	}
	switch s.pl.workload {
	case "query":
		// A second evaluator on a sample of timed answers: the compiled
		// closed form in process against the daemon's memoized walk.
		pipes := map[int]*model.Model{}
		for i, o := range s.pl.timed {
			if i%16 != 0 {
				continue
			}
			m := pipes[o.prog]
			if m == nil {
				p, err := core.Analyze(s.pl.progs[o.prog].name, s.pl.progs[o.prog].src, core.Options{})
				if err != nil {
					return checked, err
				}
				m = p.Model
				pipes[o.prog] = m
			}
			first := s.answers[fmt.Sprintf("%d|%s", o.prog, envKey(o.env))]
			for k, fn := range o.cells {
				cm, err := m.Compile(fn)
				if err != nil {
					return checked, err
				}
				met, err := cm.Eval(expr.EnvFromInts(o.env))
				if err != nil {
					return checked, err
				}
				if want := (metricsWire{met.Instrs, met.Flops, met.FPI()}); *first[k].Metrics != want {
					return checked, fmt.Errorf("query %s at %v: daemon %+v != compiled %+v", fn, o.env, *first[k].Metrics, want)
				}
				checked++
			}
		}
	case "sweep":
		for _, sm := range s.samples {
			kind := "static"
			if sm.roofline != nil {
				kind = "roofline"
			}
			req := map[string]any{"key": s.keys[sm.prog], "queries": []wireQuery{{Fn: sm.fn, Env: sm.env, Kind: kind, Arch: sm.arch}}}
			var q queryWire
			if _, _, err := s.d.postJSON(ctx, "/query", req, &q); err != nil {
				return checked, err
			}
			if len(q.Results) != 1 {
				return checked, fmt.Errorf("sweep check: %d cells", len(q.Results))
			}
			c := q.Results[0]
			if kind == "static" && (c.Metrics == nil || *c.Metrics != *sm.metrics) ||
				kind == "roofline" && !bytes.Equal(bytes.TrimSpace(c.Roofline), bytes.TrimSpace(sm.roofline)) {
				return checked, fmt.Errorf("sweep %s at %v (%s %s): point differs from /query cell", sm.fn, sm.env, kind, sm.arch)
			}
			checked++
		}
	}
	return checked, nil
}
