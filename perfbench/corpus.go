package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/synth"
)

// program is one MiniC translation unit the benchmark sends.
type program struct {
	name   string
	src    string
	family string // synth Table I row or benchprogs base name
	// vm marks programs whose functions the VM can run with generic
	// arguments (ints, doubles, and flat double arrays); miniFE's
	// class-typed CSR arguments need hand-built memory and are left out.
	vm bool
	// fns are the functions a query or sweep may evaluate: not extern,
	// and every free model parameter is one of the function's own
	// parameters, so a size point binds it completely.
	fns []fnInfo
	// roots are the functions no other function calls: editing one
	// recompiles exactly that function.
	roots []string
}

// fnInfo describes one function of a program.
type fnInfo struct {
	name string
	free []string // free model parameters, sorted
}

// benchBase is one benchprogs workload the corpus shifts into variants.
type benchBase struct {
	name string
	src  string
	vm   bool
}

var benchBases = []benchBase{
	{"stream", benchprogs.Stream, true},
	{"dgemm", benchprogs.Dgemm, true},
	{"minife", benchprogs.MiniFE, false},
	{"ablation", benchprogs.Ablation, true},
}

// tag names one corpus entry. It has the same length for every seed and
// index, because synth seeds its statement mix from the name's length:
// two seeds then draw the same program shapes under different names.
func tag(seed int64, kind string, i int) string {
	return fmt.Sprintf("s%08x%s%04d", uint32(seed), kind, i)
}

// synthProgram generates the Table I row's synthetic application under a
// tagged name, so every tag yields distinct function names and source.
func synthProgram(row synth.Profile, tag string) program {
	p := row
	p.Name = row.Name + "_" + tag
	src, err := synth.Generate(p)
	if err != nil {
		panic(fmt.Sprintf("synth row %s: %v", row.Name, err)) // Table I rows are feasible by construction
	}
	return program{name: p.Name + ".c", src: src, family: row.Name, vm: true}
}

// shiftedProgram prefixes a benchprogs source with a tag comment and
// shift blank lines. Function keys are position sensitive, so distinct
// shifts of one base share no function-memo cell.
func shiftedProgram(b benchBase, tag string, shift int) program {
	src := "// perfbench variant " + tag + "\n" + strings.Repeat("\n", shift) + b.src
	return program{name: fmt.Sprintf("%s_%s.c", b.name, tag), src: src, family: b.name, vm: b.vm}
}

// describe fills in fns and roots by analyzing the program in process.
func describe(p *program) error {
	pl, err := core.Analyze(p.name, p.src, core.Options{})
	if err != nil {
		return err
	}
	called := map[string]bool{}
	for _, q := range pl.Prog.FuncOrder {
		for _, c := range pl.Prog.Funcs[q].Callees {
			called[c] = true
		}
	}
	p.fns, p.roots = nil, nil
	for _, q := range pl.Prog.FuncOrder {
		if pl.Prog.Funcs[q].Decl.IsExtern {
			continue
		}
		if !called[q] {
			p.roots = append(p.roots, q)
		}
		if free, ok := closureFree(pl, q); ok && len(free) > 0 {
			p.fns = append(p.fns, fnInfo{name: q, free: free})
		}
	}
	return nil
}

// closureFree returns the free model parameters of fn and everything it
// calls; ok is false when one of them is not a size parameter (miniFE's
// assemble models per-element indices, and enumerates the mesh when
// evaluated, so neither it nor its callers are query targets).
func closureFree(pl *core.Pipeline, fn string) ([]string, bool) {
	set := map[string]bool{}
	seen := map[string]bool{}
	var visit func(q string) bool
	visit = func(q string) bool {
		if seen[q] {
			return true
		}
		seen[q] = true
		f, ok := pl.Model.Funcs[q]
		if !ok || f.Extern {
			return true
		}
		for _, prm := range f.FreeParams() {
			if _, ok := sizeParams[prm]; !ok {
				return false
			}
			set[prm] = true
		}
		for _, c := range pl.Prog.Funcs[q].Callees {
			if !visit(c) {
				return false
			}
		}
		return true
	}
	if !visit(fn) {
		return nil, false
	}
	return sortedKeys(set), true
}

// sizeParams are the parameter names the benchmark binds at size points,
// with the range a sweep axis or query point starts from. nnz_row is
// miniFE's lp_iter annotation parameter (CSR nonzeros per row).
var sizeParams = map[string][2]int64{
	"nnz_row":  {7, 27},
	"n":        {8, 64},
	"nrep":     {1, 4},
	"nx":       {4, 16},
	"ny":       {4, 16},
	"nz":       {4, 16},
	"max_iter": {10, 50},
}

// op is one generated request, shared by the HTTP client loop and the
// in-process replay.
type op struct {
	prog int // index into plan.progs (edit/query/sweep), or -1
	// analyze / edit: the source sent.
	name, src string
	// edit: the edited function; sweep: the swept function.
	fn string
	// query: the size point and the functions evaluated at it.
	env    map[string]int64
	cells  []string
	repeat bool
	// sweep
	kind  string // "static" | "roofline"
	axes  []axis
	archs []string
	// work is what the op completes: programs, query cells, or grid
	// points.
	work float64
	// vm marks the op's source as runnable on the VM (analyze / edit),
	// and family names the corpus entry it came from.
	vm     bool
	family string
}

type axis struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

// plan is one workload's whole seeded request sequence.
type plan struct {
	workload string
	progs    []program // primed before warm-up (edit, query, sweep)
	warm     []op
	timed    []op
	// repeatShare is the drawn share of timed query requests that repeat
	// an earlier point.
	repeatShare float64
}

// Sweep grid shape: static sweeps evaluate sweepStaticPoints envs,
// roofline sweeps sweepRoofEnvs envs on each of sweepArchs.
const (
	sweepStaticPoints = 4096
	sweepRoofEnvs     = 1024
	queryRepeatEvery  = 4 // one timed query in four repeats a point: share 0.25
	editCycles        = 3 // corpus cycles primed for the edit workload
)

var sweepArchs = []string{"skylake", "zen2", "graviton3", "icelake"}

// corpusCycle builds one cycle of the analyze/edit corpus: every Table I
// row, scaled by the cycle's size factor, plus every benchprogs base, in
// seeded order. The sizes depend on the cycle index only, so every seed
// sends the same multiset of program sizes and a run's median lands on
// the same program size whatever the seed; names, shifts and order vary.
func corpusCycle(rng *rand.Rand, seed int64, cycle int) []program {
	scale := cycleScale(cycle)
	var out []program
	for _, row := range synth.TableIProfiles {
		out = append(out, synthProgram(scaleProfile(row, scale), tag(seed, "c", cycle)))
	}
	for _, b := range benchBases {
		out = append(out, shiftedProgram(b, tag(seed, "c", cycle), 1+cycle))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// cycleScale is cycle c's size factor in [0.25, 1): a low-discrepancy
// (golden-ratio) sequence, so any run of consecutive cycles covers the
// range evenly.
func cycleScale(c int) float64 {
	const phi = 0.6180339887498949
	x := float64(c+1) * phi
	return 0.25 + 0.75*(x-float64(int(x)))
}

// scaleProfile shrinks a Table I row, keeping its shape feasible.
func scaleProfile(p synth.Profile, s float64) synth.Profile {
	p.Loops = max(1, int(float64(p.Loops)*s+0.5))
	p.InLoops = max(p.Loops, int(float64(p.InLoops)*s+0.5))
	p.Statements = max(p.InLoops, int(float64(p.Statements)*s+0.5))
	return p
}

// warmedPrograms builds the query/sweep program set: four position
// shifts of each benchprogs base (the synthetic rows have no size
// parameters to query).
func warmedPrograms(seed int64) ([]program, error) {
	var out []program
	for v := 0; v < 4; v++ {
		for _, b := range benchBases {
			p := shiftedProgram(b, tag(seed, "v", v), 1+3*v)
			if err := describe(&p); err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// makePlan generates workload's request sequence from seed: warm ops
// then timed ops, with timed fixed at n.
func makePlan(workload string, seed int64, warm, n int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	pl := &plan{workload: workload}
	switch workload {
	case "analyze":
		n = roundUp(n, len(synth.TableIProfiles)+len(benchBases))
		var all []op
		for c := 0; len(all) < warm+n; c++ {
			for _, p := range corpusCycle(rng, seed, c) {
				all = append(all, op{prog: -1, name: p.name, src: p.src, work: 1, vm: p.vm, family: p.family})
			}
		}
		pl.warm, pl.timed = all[:warm], all[warm:warm+n]
	case "edit":
		for c := 0; c < editCycles; c++ {
			pl.progs = append(pl.progs, corpusCycle(rng, seed, c)...)
		}
		type site struct {
			prog, line int
			fn, lhs    string
		}
		var sites []site
		for i := range pl.progs {
			p := &pl.progs[i]
			if err := describe(p); err != nil {
				return nil, err
			}
			for _, fn := range p.roots {
				line, lhs, ok := editSite(p.src, fn)
				if ok {
					sites = append(sites, site{i, line, fn, lhs})
				}
			}
		}
		if len(sites) == 0 {
			return nil, fmt.Errorf("edit: no editable function in the corpus")
		}
		n = roundUp(n, len(sites))
		var all []op
		for len(all) < warm+n {
			perm := rng.Perm(len(sites))
			for _, k := range perm {
				s := sites[k]
				p := pl.progs[s.prog]
				// The edit rides on the function's own line, so no other
				// function's positions (and keys) move; the value is
				// unique, so every edit is a new source text.
				lines := strings.Split(p.src, "\n")
				lines[s.line] = fmt.Sprintf("\t%s = %d; %s", s.lhs, len(all)+1, strings.TrimLeft(lines[s.line], "\t"))
				all = append(all, op{prog: s.prog, name: p.name, src: strings.Join(lines, "\n"), fn: s.fn, work: 1, vm: p.vm, family: p.family})
			}
		}
		pl.warm, pl.timed = all[:warm], all[warm:warm+n]
	case "query":
		progs, err := warmedPrograms(seed)
		if err != nil {
			return nil, err
		}
		pl.progs = progs
		seen := make([]map[string]bool, len(progs))
		hist := make([][]map[string]int64, len(progs))
		for i := range seen {
			seen[i] = map[string]bool{}
		}
		fresh := func(pi int) map[string]int64 {
			for {
				env := map[string]int64{}
				for _, f := range progs[pi].fns {
					for _, prm := range f.free {
						r := sizeParams[prm]
						env[prm] = r[0] + rng.Int63n(64*(r[1]-r[0]))
					}
				}
				if k := envKey(env); !seen[pi][k] {
					seen[pi][k] = true
					hist[pi] = append(hist[pi], env)
					return env
				}
			}
		}
		queryOp := func(pi int, env map[string]int64, repeat bool) op {
			var cells []string
			for _, f := range progs[pi].fns {
				cells = append(cells, f.name)
			}
			return op{prog: pi, env: env, cells: cells, repeat: repeat, work: float64(len(cells))}
		}
		// Warm-up: two fresh points per program, so every timed repeat
		// has history to draw from.
		for c := 0; c < 2; c++ {
			for _, pi := range rng.Perm(len(progs)) {
				pl.warm = append(pl.warm, queryOp(pi, fresh(pi), false))
			}
		}
		// Each cycle visits every program once; program k repeats a
		// uniformly drawn earlier point of its own in cycle c when
		// (k+c) % queryRepeatEvery is the last residue. Over every
		// queryRepeatEvery cycles each program repeats exactly once, so
		// both the request share and the cell share of repeats are
		// exactly 1/queryRepeatEvery, whatever the seed.
		n = roundUp(n, queryRepeatEvery*len(progs))
		for c := 0; len(pl.timed) < n; c++ {
			for _, pi := range rng.Perm(len(progs)) {
				if (pi+c)%queryRepeatEvery == queryRepeatEvery-1 {
					h := hist[pi]
					pl.timed = append(pl.timed, queryOp(pi, h[rng.Intn(len(h))], true))
				} else {
					pl.timed = append(pl.timed, queryOp(pi, fresh(pi), false))
				}
			}
		}
		pl.repeatShare = 1 / float64(queryRepeatEvery)
	case "sweep":
		progs, err := warmedPrograms(seed)
		if err != nil {
			return nil, err
		}
		pl.progs = progs
		type target struct {
			prog int
			fn   fnInfo
		}
		var targets []target
		for pi, p := range progs {
			for _, f := range p.fns {
				targets = append(targets, target{pi, f})
			}
		}
		sweepOp := func(t target, kind string) op {
			o := op{prog: t.prog, fn: t.fn.name, kind: kind}
			envs := sweepStaticPoints
			if kind == "roofline" {
				envs = sweepRoofEnvs
				o.archs = sweepArchs
			}
			for i, size := range gridShape(envs, len(t.fn.free)) {
				prm := t.fn.free[i]
				r := sizeParams[prm]
				// Unit steps: the values' magnitudes, which the rational
				// arithmetic's cost follows, then do not depend on the seed.
				start := r[0] + rng.Int63n(r[1]-r[0])
				vals := make([]int64, size)
				for k := range vals {
					vals[k] = start + int64(k)
				}
				o.axes = append(o.axes, axis{Name: prm, Values: vals})
			}
			o.work = float64(envs * max(1, len(o.archs)))
			return o
		}
		// Warm-up: one single-point sweep per (function, kind), so the
		// symbolic compile of every target is paid during set-up.
		for _, t := range targets {
			for _, kind := range []string{"static", "roofline"} {
				o := sweepOp(t, kind)
				for i := range o.axes {
					o.axes[i].Values = o.axes[i].Values[:1]
				}
				o.work = float64(max(1, len(o.archs)))
				pl.warm = append(pl.warm, o)
			}
		}
		// Every cycle sweeps every target once; a target's kind depends on
		// its index and the cycle, never on the seed, so two static sweeps
		// for every roofline one keep the median inside the static mode
		// and every seed sends the same multiset of sweeps.
		n = roundUp(n, len(targets))
		for c := 0; len(pl.timed) < n; c++ {
			for _, k := range rng.Perm(len(targets)) {
				kind := "static"
				if (k+c)%3 == 2 {
					kind = "roofline"
				}
				pl.timed = append(pl.timed, sweepOp(targets[k], kind))
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return pl, nil
}

// roundUp rounds n up to a whole number of k-op cycles.
func roundUp(n, k int) int { return (n + k - 1) / k * k }

// gridShape splits a power-of-two point count over dims axes as evenly
// as powers of two allow.
func gridShape(points, dims int) []int {
	out := make([]int, dims)
	for i := range out {
		out[i] = 1
	}
	for i := 0; points > 1; i = (i + 1) % dims {
		out[i] *= 2
		points /= 2
	}
	return out
}

// envKey canonicalizes a size point.
func envKey(env map[string]int64) string {
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, "%s=%d;", k, env[k])
	}
	return sb.String()
}

var (
	funcHeader = regexp.MustCompile(`^[A-Za-z_][\w\s\*]*\b(\w+)\s*\(`)
	intDecl    = regexp.MustCompile(`^\s*int\s+(\w+)\s*;\s*$`)
	localDecl  = regexp.MustCompile(`^\s*(int|double|float|long|char|const)\b[^=(]*;\s*$`)
)

// editSite finds, for a top-level function, the 0-based line of its
// first statement and an int local the edit may assign.
func editSite(src, fn string) (line int, lhs string, ok bool) {
	lines := strings.Split(src, "\n")
	in := false
	for i, l := range lines {
		if !in {
			if m := funcHeader.FindStringSubmatch(l); m != nil && m[1] == fn && strings.HasSuffix(strings.TrimSpace(l), "{") {
				in = true
			}
			continue
		}
		if l == "}" {
			return 0, "", false
		}
		if m := intDecl.FindStringSubmatch(l); m != nil {
			if lhs == "" {
				lhs = m[1]
			}
			continue
		}
		if localDecl.MatchString(l) || strings.TrimSpace(l) == "" {
			continue
		}
		return i, lhs, lhs != ""
	}
	return 0, "", false
}
