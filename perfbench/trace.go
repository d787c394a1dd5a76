package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"mira/internal/arch"
	"mira/internal/cc"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/metrics"
	"mira/internal/model"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/roofline"
	"mira/internal/sema"
)

// span is one timed call into a layer, recorded in memory and written
// out as one JSON line at exit. Pass is the timed pass (1 or 2) that
// recorded it. Times are nanoseconds since the pass's trace began;
// Parent is the index of the enclosing span within the pass, -1 at the
// root.
type span struct {
	Pass   int    `json:"pass,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer records spans around the benchmark's own calls into each layer;
// nothing inside the program is instrumented. With countAllocs it also
// reads runtime.MemStats around every span (a stop-the-world read, so
// alloc passes are never timed).
type tracer struct {
	t0          time.Time
	spans       []span
	stack       []int
	req         int
	pass        int
	countAllocs bool
	ms          runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	sp := span{Pass: t.pass, Name: name, Parent: parent, Req: t.req}
	if t.countAllocs {
		runtime.ReadMemStats(&t.ms)
		sp.Allocs = t.ms.Mallocs
	}
	t.stack = append(t.stack, len(t.spans))
	sp.Start = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, sp)
}

func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	if t.countAllocs {
		runtime.ReadMemStats(&t.ms)
		t.spans[i].Allocs = t.ms.Mallocs - t.spans[i].Allocs
	}
}

// record adds a span measured elsewhere (the untraced engine call).
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Pass: t.pass, Name: name, Start: s, End: s + d.Nanoseconds(), Parent: -1, Req: t.req})
}

// layerOf maps a span name to its layer (module): "cc.link" -> "cc".
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per span name, the span durations minus the parts of
// them their child spans cover, over the spans of requests in reqs; and
// per name the allocation counts minus the children's.
func selfTimes(spans []span, reqs map[int]bool) (self map[string]time.Duration, allocs map[string]uint64, calls map[string]int) {
	child := make([]int64, len(spans))
	childAllocs := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	self, allocs, calls = map[string]time.Duration{}, map[string]uint64{}, map[string]int{}
	for i, s := range spans {
		if !reqs[s.Req] {
			continue
		}
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		allocs[s.Name] += s.Allocs - childAllocs[i]
		calls[s.Name]++
	}
	return self, allocs, calls
}

// mirror replays requests through each layer's public functions the way
// the engine sequences them, keeping the per-function artifacts and memo
// keys the engine would keep, so each replayed request does the same
// work as the engine call it shadows.
type mirror struct {
	// eng, when set, is the in-process engine whose calls repeat times;
	// an are its analyses of the primed programs, for sweep grids.
	eng *engine.Engine
	an  []*engine.Analysis

	opts     core.Options
	t        *tracer
	reg      *arch.Registry
	units    map[string]*cc.Unit
	models   map[string]*model.Func
	pipes    []*core.Pipeline // per plan.progs entry
	memo     map[string]bool
	compiled map[string]*model.CompiledModel

	// Per-request outputs, for the consistency checks and counters.
	compiledFns []string
	modeled     int
	srcBytes    int
	objBytes    int
	points      int
}

func newMirror(opts core.Options, t *tracer, n int) *mirror {
	return &mirror{
		opts: opts, t: t, reg: arch.NewRegistry(),
		units: map[string]*cc.Unit{}, models: map[string]*model.Func{},
		pipes: make([]*core.Pipeline, n), memo: map[string]bool{}, compiled: map[string]*model.CompiledModel{},
	}
}

// analyze mirrors core.AnalyzeIncrementalContext against the engine's
// function memo: parse, sema, keys, compile on key miss, link, object
// round trip, model generation on key miss.
func (m *mirror) analyze(name, src string) (*core.Pipeline, error) {
	t := m.t
	m.srcBytes += len(src)
	t.begin("parser.ParseFile")
	file, err := parser.ParseFile(name, src)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("sema.Analyze")
	prog, err := sema.Analyze(file)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("core.FuncKeys")
	keys := core.FuncKeys(prog, m.opts)
	t.end()
	ccOpts := cc.Options{SourceName: name, DisableOpt: m.opts.DisableOpt}
	order := cc.LinkOrder(prog)
	units := make([]*cc.Unit, 0, len(order))
	for _, q := range order {
		u := m.units[keys[q]]
		if u == nil {
			t.begin("cc.CompileFunc")
			u, err = cc.CompileFunc(prog, ccOpts, q)
			t.end()
			if err != nil {
				return nil, err
			}
			m.units[keys[q]] = u
			m.compiledFns = append(m.compiledFns, q)
		}
		units = append(units, u)
	}
	t.begin("cc.Link")
	obj, err := cc.Link(prog, ccOpts, units)
	t.end()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	t.begin("objfile.Encode")
	err = obj.Encode(&buf)
	t.end()
	if err != nil {
		return nil, err
	}
	m.objBytes += buf.Len()
	t.begin("objfile.Decode")
	dec, err := objfile.Decode(buf.Bytes())
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("metrics.NewGenerator")
	gen := metrics.NewGenerator(prog, dec, metrics.Config{Lenient: m.opts.Lenient})
	t.end()
	mod := &model.Model{SourceName: dec.SourceName, Funcs: map[string]*model.Func{}}
	for _, q := range prog.FuncOrder {
		fm := m.models[keys[q]]
		if fm == nil {
			t.begin("metrics.FuncModel")
			fm, _, err = gen.FuncModel(q)
			t.end()
			if err != nil {
				return nil, err
			}
			m.models[keys[q]] = fm
			m.modeled++
		}
		mod.Funcs[q] = fm
		mod.Order = append(mod.Order, q)
	}
	return &core.Pipeline{Name: name, Source: src, File: file, Prog: prog, Obj: dec, Model: mod, FuncKeys: keys}, nil
}

// query mirrors Analysis.Run over static cells: a (function key, point)
// memo hit costs nothing, a miss walks the model.
func (m *mirror) query(p *core.Pipeline, o *op) error {
	env := expr.EnvFromInts(o.env)
	for _, fn := range o.cells {
		k := p.FuncKeys[fn] + "|" + envKey(o.env)
		if m.memo[k] {
			continue
		}
		m.t.begin("model.Evaluate")
		_, err := p.Model.Evaluate(fn, env)
		m.t.end()
		if err != nil {
			return err
		}
		m.memo[k] = true
	}
	return nil
}

// sweep mirrors Analysis.Sweep: compile once per function key, then
// evaluate every point (and, for roofline, assess it against its arch)
// fanned out over the engine's worker bound. The grid comes from the
// engine: a's Sweep called with a cancelled context expands the grid,
// resolves the archs and lays out the points but evaluates none, so the
// engine.Sweep span times the engine's own per-sweep work with the
// engine's real code.
func (m *mirror) sweep(ctx context.Context, a *engine.Analysis, p *core.Pipeline, o *op, workers int) error {
	cm := m.compiled[p.FuncKeys[o.fn]]
	if cm == nil {
		var err error
		m.t.begin("model.Compile")
		cm, err = p.Model.Compile(o.fn)
		m.t.end()
		if err != nil {
			return err
		}
		m.compiled[p.FuncKeys[o.fn]] = cm
	}
	archs := []*arch.Description{nil}
	if o.archs != nil {
		archs = archs[:0]
		for _, name := range o.archs {
			d, err := m.reg.Lookup(name)
			if err != nil {
				return err
			}
			archs = append(archs, d)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	m.t.begin("engine.Sweep")
	res, err := a.Sweep(cancelled, sweepSpec(o))
	m.t.end()
	if err != nil {
		return err
	}
	pts := res.Points
	nEnv := len(pts) / len(archs)
	for i := range pts {
		pts[i].Err = nil
	}

	const chunk = 64
	fan := func(each func(pt *engine.SweepPoint, d *arch.Description)) {
		_ = engine.ForEachCtx(ctx, workers, (len(pts)+chunk-1)/chunk, func(ci int) error {
			for i := ci * chunk; i < min(len(pts), (ci+1)*chunk); i++ {
				each(&pts[i], archs[i/nEnv])
			}
			return nil
		})
	}
	m.t.begin("model.Eval")
	fan(func(pt *engine.SweepPoint, _ *arch.Description) {
		met, err := cm.Eval(expr.EnvFromInts(pt.Env))
		pt.Metrics, pt.Err = &met, err
	})
	m.t.end()
	if o.archs != nil {
		m.t.begin("roofline.Analyze")
		fan(func(pt *engine.SweepPoint, d *arch.Description) {
			if pt.Err == nil {
				pt.Roofline, pt.Err = roofline.Analyze(o.fn, *pt.Metrics, d)
			}
		})
		m.t.end()
	}
	m.points += len(pts)
	for i := range pts {
		if pts[i].Err != nil {
			return pts[i].Err
		}
	}
	return nil
}

// replay sends one op through the mirror inside a "request" span. A
// sweep op needs the engine's analyses (an) for its grid.
func (m *mirror) replay(ctx context.Context, o *op, workers int) error {
	m.t.begin("request")
	defer m.t.end()
	m.compiledFns, m.modeled = m.compiledFns[:0], 0
	switch {
	case o.src != "":
		_, err := m.analyze(o.name, o.src)
		return err
	case o.cells != nil:
		return m.query(m.pipes[o.prog], o)
	default:
		return m.sweep(ctx, m.an[o.prog], m.pipes[o.prog], o, workers)
	}
}

// repeat runs again the engine call an analyze or edit op made. The
// repeat is a cache hit, so its span times the engine's own per-request
// work (content hashing and the cache lookup) with the engine's real
// code. It returns the span's duration.
func (m *mirror) repeat(ctx context.Context, o *op) (time.Duration, error) {
	if o.src == "" {
		return 0, nil
	}
	m.t.begin("engine.AnalyzeCtx")
	_, err := m.eng.AnalyzeCtx(ctx, o.name, o.src)
	m.t.end()
	sp := m.t.spans[len(m.t.spans)-1]
	return time.Duration(sp.End - sp.Start), err
}

// evalSeconds reads the engine's own mira_eval_seconds sum: the time its
// memo-missed model walks took, timed inside the engine.
func evalSeconds(eng *engine.Engine) (float64, error) {
	var buf bytes.Buffer
	if err := eng.Obs().WriteOpenMetrics(&buf); err != nil {
		return 0, err
	}
	m, err := parseMetrics(&buf)
	return m["mira_eval_seconds_sum"], err
}

// prime mirrors the daemon's priming /analyze calls.
func (m *mirror) prime(pl *plan) error {
	for i, p := range pl.progs {
		m.t.begin("request")
		pipe, err := m.analyze(p.name, p.src)
		m.t.end()
		if err != nil {
			return err
		}
		m.pipes[i] = pipe
	}
	return nil
}

// engineCall runs the op through an in-process engine with the daemon's
// options and returns its duration and the delta's recompiled list.
func engineCall(ctx context.Context, eng *engine.Engine, an []*engine.Analysis, o *op) (time.Duration, []string, error) {
	start := time.Now()
	switch {
	case o.src != "":
		a, err := eng.AnalyzeCtx(ctx, o.name, o.src)
		d := time.Since(start)
		if err != nil {
			return d, nil, err
		}
		if a.Delta() == nil {
			return d, nil, fmt.Errorf("%s: engine reported no build", o.name)
		}
		return d, a.Delta().Compiled, nil
	case o.cells != nil:
		qs := make([]engine.Query, len(o.cells))
		env := expr.EnvFromInts(o.env)
		for i, fn := range o.cells {
			qs[i] = engine.Query{Fn: fn, Env: env, Kind: engine.KindStatic}
		}
		res := an[o.prog].Run(ctx, qs)
		d := time.Since(start)
		for _, r := range res {
			if r.Err != nil {
				return d, nil, r.Err
			}
		}
		return d, nil, nil
	default:
		res, err := an[o.prog].Sweep(ctx, sweepSpec(o))
		d := time.Since(start)
		if err != nil {
			return d, nil, err
		}
		if errs := res.Errs(); len(errs) > 0 {
			return d, nil, errs[0]
		}
		return d, nil, nil
	}
}

// sweepSpec is the engine form of a sweep op.
func sweepSpec(o *op) engine.SweepSpec {
	kind := engine.KindStatic
	if o.kind == "roofline" {
		kind = engine.KindRoofline
	}
	axes := make([]engine.SweepAxis, len(o.axes))
	for i, ax := range o.axes {
		axes[i] = engine.SweepAxis{Name: ax.Name, Values: ax.Values}
	}
	return engine.SweepSpec{Fn: o.fn, Kind: kind, Axes: axes, Archs: o.archs}
}

type traceResult struct {
	metrics map[string]metric
	bad     []string
}

// timedPass is one in-process pass over the timed requests.
type timedPass struct {
	spans  []span
	call   []time.Duration // per request, the untraced engine call
	replay []time.Duration // per request, the traced replay and the engine's own span
	bad    []string

	funcsCompiled, funcsModeled, srcBytes, objBytes, points int
}

// timePass sets up a fresh in-process engine with the daemon's options
// and a fresh mirror, primed and warmed as the daemon was, then sends
// each timed request as the untraced engine call (span "call") followed
// by its traced replay and the engine's own span. On analyze and edit
// that span repeats the call; on query it is the call minus the engine's
// own timing of its model walks, since a repeated query is a memo hit
// that finds the call's entries in the core's caches and skips the memo
// stores; on sweep it is inside the replay. Request ids start at 1 for
// timed ops.
func timePass(ctx context.Context, pl *plan, pass int) (*timedPass, int, error) {
	eng, an, opts, err := primedEngine(ctx, pl, 0)
	if err != nil {
		return nil, 0, err
	}
	workers := eng.Workers()
	t := newTracer()
	t.pass = pass
	m := newMirror(opts, t, len(pl.progs))
	if err := m.prime(pl); err != nil {
		return nil, 0, err
	}
	m.eng, m.an = eng, an
	for i := range pl.warm {
		if _, _, err := engineCall(ctx, eng, an, &pl.warm[i]); err != nil {
			return nil, 0, err
		}
		if err := m.replay(ctx, &pl.warm[i], workers); err != nil {
			return nil, 0, err
		}
	}

	tp := &timedPass{}
	m.srcBytes, m.objBytes, m.points = 0, 0, 0
	evalSum, err := evalSeconds(eng)
	if err != nil {
		return nil, 0, err
	}
	// The collector runs only between requests, once the heap has grown
	// by gcEvery: a concurrent mark phase would otherwise slow whichever
	// of the call and its replay it overlaps.
	const gcEvery = 128 << 20
	oldGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(oldGC)
	var mem runtime.MemStats
	var heapAfterGC uint64
	for i := range pl.timed {
		o := &pl.timed[i]
		t.req = i + 1
		if runtime.ReadMemStats(&mem); i == 0 || mem.HeapAlloc > heapAfterGC+gcEvery {
			runtime.GC()
			runtime.ReadMemStats(&mem)
			heapAfterGC = mem.HeapAlloc
		}
		start := time.Now()
		d, recompiled, err := engineCall(ctx, eng, an, o)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: %v", err)
		}
		t.record("call", start, d)
		rs := len(t.spans)
		if err := m.replay(ctx, o, workers); err != nil {
			return nil, 0, fmt.Errorf("replay: %v", err)
		}
		rd, err := m.repeat(ctx, o)
		if err != nil {
			return nil, 0, fmt.Errorf("engine repeat: %v", err)
		}
		if o.cells != nil {
			sum, err := evalSeconds(eng)
			if err != nil {
				return nil, 0, err
			}
			rd = d - time.Duration((sum-evalSum)*float64(time.Second))
			t.record("engine.Run", start, rd)
			evalSum = sum
		}
		tp.call = append(tp.call, d)
		tp.replay = append(tp.replay, time.Duration(t.spans[rs].End-t.spans[rs].Start)+rd)
		tp.funcsCompiled += len(m.compiledFns)
		tp.funcsModeled += m.modeled
		if o.src != "" && !slices.Equal(recompiled, m.compiledFns) {
			tp.bad = append(tp.bad, fmt.Sprintf("trace: %s: engine recompiled %v, replay compiled %v", o.name, recompiled, m.compiledFns))
		}
	}
	tp.spans = t.spans
	tp.srcBytes, tp.objBytes, tp.points = m.srcBytes, m.objBytes, m.points
	return tp, workers, nil
}

// traced replays the plan in process in two identical timed passes (see
// timePass) and then replays a prefix twice more counting allocations.
// Each request counts the faster of its two engine calls and the layer
// spans of its faster replay, so a preemption or stall that hits one
// pass does not land in the comparison of layers with calls.
func traced(ctx context.Context, pl *plan, ph *phaseResult, counters map[string]float64, spansPath string, log io.Writer) (*traceResult, error) {
	var passes [2]*timedPass
	var workers int
	for k := range passes {
		var err error
		if passes[k], workers, err = timePass(ctx, pl, k+1); err != nil {
			return nil, err
		}
	}
	p1, p2 := passes[0], passes[1]
	bad := append(p1.bad, p2.bad...)
	chosen := [2]map[int]bool{{}, {}}
	var engineDur, reqDur []time.Duration
	var engineTotal time.Duration
	for i := range pl.timed {
		d := min(p1.call[i], p2.call[i])
		engineDur = append(engineDur, d)
		engineTotal += d
		k := 0
		if p2.replay[i] < p1.replay[i] {
			k = 1
		}
		chosen[k][i+1] = true
		reqDur = append(reqDur, passes[k].replay[i])
	}
	if err := writeSpans(spansPath, append(p1.spans, p2.spans...)); err != nil {
		return nil, err
	}

	self, _, calls := selfTimes(p1.spans, chosen[0])
	self2, _, calls2 := selfTimes(p2.spans, chosen[1])
	for name, d := range self2 {
		self[name] += d
		calls[name] += calls2[name]
	}
	layer := map[string]time.Duration{}
	for name, d := range self {
		if name != "call" && name != "request" {
			layer[layerOf(name)] += d
		}
	}
	var layerSum time.Duration
	for _, d := range layer {
		layerSum += d
	}
	ops := float64(len(pl.timed))
	perOp := func(d time.Duration) float64 { return ms(d) / ops }
	sumRatio := float64(layerSum) / float64(engineTotal)
	if sumRatio < 0.9 || sumRatio > 1.1 {
		bad = append(bad, fmt.Sprintf("trace: layer self times sum to %.3f of the in-process engine calls, outside 0.9-1.1", sumRatio))
	}
	engineP50 := percentile(sortedCopy(engineDur), 0.5)
	tracedP50 := percentile(sortedCopy(reqDur), 0.5)
	overhead := 100 * (float64(tracedP50) - float64(engineP50)) / float64(engineP50)

	var rttTotal time.Duration
	for _, d := range ph.rtt {
		rttTotal += d
	}

	// Allocation counts: two identical passes over a prefix of the timed
	// requests, each from a fresh mirror, with the collector stopped
	// during every counted request so sync.Pool state cannot differ.
	allocOps := min(len(pl.timed), 40)
	a1, err := allocPass(ctx, pl, allocOps, workers)
	if err != nil {
		return nil, err
	}
	a2, err := allocPass(ctx, pl, allocOps, workers)
	if err != nil {
		return nil, err
	}
	// A layer whose count differs between the passes allocates
	// nondeterministically (map-order-dependent growth); it is reported,
	// and its count cannot serve as exact evidence.
	exact := 0
	for _, l := range sortedKeys(a1) {
		if a1[l] == a2[l] {
			exact++
		} else {
			fmt.Fprintf(log, "  note: %s allocations differ between identical passes: %d vs %d\n", l, a1[l], a2[l])
		}
	}
	repeat := float64(exact) / float64(max(1, len(a1)))
	allocsPerOp := func(l string) float64 { return float64(a1[l]) / float64(allocOps) }

	ratio := func(hit, miss string) float64 {
		if h, mi := counters[hit], counters[miss]; h+mi > 0 {
			return h / (h + mi)
		}
		return 0
	}
	walkUs := 0.0
	if calls["model.Evaluate"] > 0 {
		walkUs = float64(self["model.Evaluate"]) / float64(time.Microsecond) / float64(calls["model.Evaluate"])
	}
	evalNs := 0.0
	if p1.points > 0 {
		evalNs = float64(self["model.Eval"]) / float64(p1.points)
	}
	parseKiBs := 0.0
	if self["parser.ParseFile"] > 0 {
		parseKiBs = float64(p1.srcBytes) / 1024 / self["parser.ParseFile"].Seconds()
	}
	out := map[string]metric{
		"parser.self_ms":          {perOp(layer["parser"]), "ms"},
		"parser.kib_per_s":        {parseKiBs, "KiB/s"},
		"parser.allocs":           {allocsPerOp("parser"), "count"},
		"sema.self_ms":            {perOp(layer["sema"]), "ms"},
		"core.funckeys_ms":        {perOp(layer["core"]), "ms"},
		"cc.self_ms":              {perOp(layer["cc"]), "ms"},
		"cc.funcs_compiled":       {float64(p1.funcsCompiled) / ops, "count"},
		"cc.link_ms":              {perOp(self["cc.Link"]), "ms"},
		"cc.allocs":               {allocsPerOp("cc"), "count"},
		"objfile.self_ms":         {perOp(layer["objfile"]), "ms"},
		"objfile.kib":             {float64(p1.objBytes) / 1024 / ops, "KiB"},
		"metrics.self_ms":         {perOp(layer["metrics"]), "ms"},
		"metrics.funcs_modeled":   {float64(p1.funcsModeled) / ops, "count"},
		"metrics.allocs":          {allocsPerOp("metrics"), "count"},
		"model.walk_us":           {walkUs, "us"},
		"model.compile_ms":        {perOp(self["model.Compile"]), "ms"},
		"model.eval_ns_per_point": {evalNs, "ns"},
		"model.allocs":            {allocsPerOp("model"), "count"},
		"roofline.self_ms":        {perOp(layer["roofline"]), "ms"},
		"engine.self_ms":          {perOp(layer["engine"]), "ms"},
		"engine.cache_hit_ratio":  {ratio("mira_pipeline_cache_hits_total", "mira_pipeline_cache_misses_total"), "ratio"},
		"engine.func_reuse_ratio": {ratio("mira_incremental_hits_total", "mira_incremental_misses_total"), "ratio"},
		"engine.memo_hit_ratio":   {ratio("mira_eval_memo_hits_total", "mira_eval_memo_misses_total"), "ratio"},
		"engine.resident_funcs":   {counters["mira_function_memo_entries"], "count"},
		"serve.self_ms":           {perOp(rttTotal - engineTotal), "ms"},
		"serve.resp_kib":          {float64(ph.respBytes) / 1024 / ops, "KiB"},
		"serve.http_busy_ms":      {1000 * counters["mira_http_seconds_sum"] / ops, "ms"},
		"daemon.analyze_busy_ms":  {1000 * counters["mira_analyze_seconds_sum"] / ops, "ms"},
		"daemon.eval_busy_ms":     {1000 * counters["mira_eval_seconds_sum"] / ops, "ms"},
		"daemon.sweep_busy_ms":    {1000 * counters["mira_sweep_seconds_sum"] / ops, "ms"},
		"trace.layer_sum_gap":     {math.Abs(1 - sumRatio), "ratio"},
		"trace.overhead_pct":      {overhead, "%"},
		"trace.allocs_repeat":     {repeat, "ratio"},
	}
	fmt.Fprintf(log, "trace: %d spans -> %s; engine p50 %.3f ms untraced, traced replay p50 %.3f ms (overhead %.1f%%); layers sum to %.3f of engine time\n",
		len(p1.spans)+len(p2.spans), spansPath, ms(engineP50), ms(tracedP50), overhead, sumRatio)
	for _, l := range sortedKeys(layer) {
		fmt.Fprintf(log, "  layer %-8s self %.4f ms/op, allocs %d then %d over %d ops\n", l, perOp(layer[l]), a1[l], a2[l], allocOps)
	}
	fmt.Fprintf(log, "  unmeasured layers: cachestore, cluster, report, lint (not on these request paths); vm is the correctness reference only\n")
	return &traceResult{metrics: out, bad: bad}, nil
}

// allocPass replays set-up plus the first n timed ops from a fresh
// mirror and returns the allocation count per layer over those n ops.
// Its engine serves only the sweep grids, on one worker like the
// counted replays, so no goroutine start lands in a count.
func allocPass(ctx context.Context, pl *plan, n, workers int) (map[string]uint64, error) {
	_, an, opts, err := primedEngine(ctx, pl, 1)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	m := newMirror(opts, t, len(pl.progs))
	m.an = an
	if err := m.prime(pl); err != nil {
		return nil, err
	}
	for i := range pl.warm {
		if err := m.replay(ctx, &pl.warm[i], workers); err != nil {
			return nil, err
		}
	}
	t.countAllocs = true
	reqs := map[int]bool{}
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	for i := 0; i < n; i++ {
		// Two collections empty every sync.Pool (primary, then victim),
		// so each counted request starts from the same pool state.
		runtime.GC()
		runtime.GC()
		t.req = i + 1
		reqs[t.req] = true
		if err := m.replay(ctx, &pl.timed[i], 1); err != nil {
			return nil, err
		}
	}
	_, allocs, _ := selfTimes(t.spans, reqs)
	out := map[string]uint64{}
	for name, c := range allocs {
		if name != "request" {
			out[layerOf(name)] += c
		}
	}
	return out, nil
}

// primedEngine returns an in-process engine with the daemon's options
// (workers 0 is one per CPU, as -j 0) and its analyses of the plan's
// primed programs.
func primedEngine(ctx context.Context, pl *plan, workers int) (*engine.Engine, []*engine.Analysis, core.Options, error) {
	registry := arch.NewRegistry()
	a, err := registry.Resolve("")
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	opts := core.Options{Arch: a}
	eng := engine.New(engine.Options{Core: opts, Workers: workers, MaxResident: 4096, Registry: registry})
	an := make([]*engine.Analysis, len(pl.progs))
	for i, p := range pl.progs {
		if an[i], err = eng.AnalyzeCtx(ctx, p.name, p.src); err != nil {
			return nil, nil, core.Options{}, err
		}
	}
	return eng, an, opts, nil
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
