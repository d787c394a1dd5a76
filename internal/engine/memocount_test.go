package engine_test

import (
	"bytes"
	"context"
	"testing"

	"mira/internal/arch"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/obs"
)

// TestMemoCounters pins the evaluation memo's hit/miss accounting over
// fixed query sequences: the exact Analysis.EvalStats totals and the
// exact mira_eval_memo_{hits,misses}_total deltas. Consumers that read
// these series as "repeated cells" (a repeated query is exactly one hit)
// rely on every sequence below counting the same way.
func TestMemoCounters(t *testing.T) {
	d1, d2 := nearTwin()
	n16 := expr.EnvFromInts(map[string]int64{"n": 16})
	n32 := expr.EnvFromInts(map[string]int64{"n": 32})
	q := func(kind engine.QueryKind, env expr.Env, d *arch.Description) engine.Query {
		return engine.Query{Fn: "scale", Env: env, Kind: kind, ArchDesc: d}
	}
	cases := []struct {
		name         string
		queries      []engine.Query
		jobs         int // RunAll copies of queries[0]; 0 runs queries through RunOne
		sweep        bool
		hits, misses int64
	}{
		{name: "static twice", queries: []engine.Query{
			q(engine.KindStatic, n16, nil), q(engine.KindStatic, n16, nil),
		}, hits: 1, misses: 1},
		{name: "static at two points", queries: []engine.Query{
			q(engine.KindStatic, n16, nil), q(engine.KindStatic, n32, nil),
		}, hits: 0, misses: 2},
		{name: "exclusive", queries: []engine.Query{
			q(engine.KindStaticExclusive, n16, nil), q(engine.KindStaticExclusive, n16, nil),
			q(engine.KindStatic, n16, nil),
		}, hits: 1, misses: 2},
		{name: "categories after static", queries: []engine.Query{
			q(engine.KindStatic, n16, nil), q(engine.KindCategories, n16, nil),
			q(engine.KindCategories, n16, nil),
		}, hits: 1, misses: 2},
		{name: "fine categories on twins", queries: []engine.Query{
			q(engine.KindFineCategories, n16, d1), q(engine.KindFineCategories, n16, d2),
			q(engine.KindFineCategories, n16, d1),
		}, hits: 2, misses: 1},
		{name: "fine categories after categories", queries: []engine.Query{
			q(engine.KindCategories, n16, nil), q(engine.KindFineCategories, n16, d1),
		}, hits: 1, misses: 1},
		{name: "roofline on twins", queries: []engine.Query{
			q(engine.KindRoofline, n16, d1), q(engine.KindRoofline, n16, d2),
			q(engine.KindRoofline, n16, d1),
		}, hits: 2, misses: 1},
		{name: "roofline after static", queries: []engine.Query{
			q(engine.KindStatic, n16, nil), q(engine.KindRoofline, n16, d1),
			q(engine.KindRoofline, n16, nil),
		}, hits: 2, misses: 1},
		{name: "pbound twice", queries: []engine.Query{
			q(engine.KindPBound, n16, nil), q(engine.KindPBound, n16, nil),
		}, hits: 1, misses: 1},
		{name: "RunAll duplicate jobs", queries: []engine.Query{
			q(engine.KindStatic, n16, nil),
		}, jobs: 4, hits: 3, misses: 1},
		{name: "sweep", sweep: true, hits: 0, misses: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			// One worker: RunAll's duplicate jobs then run in order, so
			// exactly the first one misses.
			e := engine.New(engine.Options{Workers: 1})
			a, err := e.AnalyzeCtx(ctx, "scale.c", scaleSrc)
			if err != nil {
				t.Fatal(err)
			}
			before := memoCounters(t, e)
			switch {
			case c.sweep:
				res, err := a.Sweep(ctx, engine.SweepSpec{
					Fn: "scale", Kind: engine.KindRoofline,
					Axes:  []engine.SweepAxis{{Name: "n", Values: []int64{8, 16, 32}}},
					Archs: []string{"arya", "skylake"},
				})
				if err != nil {
					t.Fatal(err)
				}
				if errs := res.Errs(); errs != nil {
					t.Fatal(errs)
				}
			case c.jobs > 0:
				jobs := make([]engine.QueryJob, c.jobs)
				for i := range jobs {
					jobs[i] = engine.QueryJob{Key: a.Key(), Query: c.queries[0]}
				}
				for _, r := range e.RunAll(ctx, jobs) {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
				}
			default:
				for _, qq := range c.queries {
					if r := a.RunOne(ctx, qq); r.Err != nil {
						t.Fatal(r.Err)
					}
				}
			}
			if hits, misses := a.EvalStats(); hits != c.hits || misses != c.misses {
				t.Errorf("EvalStats = %d hits / %d misses, want %d / %d", hits, misses, c.hits, c.misses)
			}
			after := memoCounters(t, e)
			if dh, dm := after[0]-before[0], after[1]-before[1]; dh != float64(c.hits) || dm != float64(c.misses) {
				t.Errorf("memo counter deltas = %v hits / %v misses, want %d / %d", dh, dm, c.hits, c.misses)
			}
		})
	}
}

// memoCounters scrapes the engine's mira_eval_memo_{hits,misses}_total.
func memoCounters(t *testing.T, e *engine.Engine) [2]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Obs().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.Parse(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	return [2]float64{exp.Value("mira_eval_memo_hits_total"), exp.Value("mira_eval_memo_misses_total")}
}
