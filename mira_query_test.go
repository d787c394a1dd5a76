package mira_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"mira"
	"mira/internal/benchprogs"
	"mira/internal/core"
)

// goldenPrograms is every embedded benchprogs workload.
var goldenPrograms = map[string]string{
	"stream":   benchprogs.Stream,
	"dgemm":    benchprogs.Dgemm,
	"minife":   benchprogs.MiniFE,
	"fig5":     benchprogs.Fig5,
	"listing1": benchprogs.Listing1,
	"listing2": benchprogs.Listing2,
	"listing4": benchprogs.Listing4,
	"listing5": benchprogs.Listing5,
	"ablation": benchprogs.Ablation,
}

// mustJSON is the byte-for-byte serialization the golden comparison
// uses; encoding/json sorts map keys, so equal values marshal equally.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestRunGoldenEquivalence proves the batched query API byte-equals a
// direct evaluation — the model walker, bucketed through core for the
// category kinds, with no engine memo in between — values and errors
// both, for every modeled function of every benchprogs program.
func TestRunGoldenEquivalence(t *testing.T) {
	for name, src := range goldenPrograms {
		res, err := mira.Analyze(name+".c", src, mira.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := res.Pipeline()
		model := p.Model
		for _, fn := range model.Order {
			f := model.Funcs[fn]
			if f.Extern {
				continue
			}
			// Bind every parameter the model needs to a small size; the
			// comparison only requires both paths to see the same env.
			args := map[string]int64{}
			for _, p := range f.FreeParams() {
				args[p] = 4
			}
			env := mira.IntArgs(args)

			directMet, directMetErr := model.Evaluate(fn, env)
			directExcl, directExclErr := model.EvaluateExclusive(fn, env)
			ops, opsErr := model.EvaluateOpcodes(fn, env)
			var directCats, directFine map[string]int64
			if opsErr == nil {
				directCats, directFine = core.BucketTableII(ops), core.BucketFine(p.Arch, ops)
			}

			batch := res.Run(context.Background(), []mira.Query{
				{Fn: fn, Env: env, Kind: mira.KindStatic},
				{Fn: fn, Env: env, Kind: mira.KindStaticExclusive},
				{Fn: fn, Env: env, Kind: mira.KindCategories},
				{Fn: fn, Env: env, Kind: mira.KindFineCategories},
			})

			type cell struct {
				direct    any
				directErr error
				batched   any
				batchErr  error
			}
			cells := map[string]cell{
				"static":           {directMet, directMetErr, batch[0].Metrics, batch[0].Err},
				"static_exclusive": {directExcl, directExclErr, batch[1].Metrics, batch[1].Err},
				"categories":       {directCats, opsErr, batch[2].Categories, batch[2].Err},
				"fine_categories":  {directFine, opsErr, batch[3].Categories, batch[3].Err},
			}
			for kind, c := range cells {
				if errString(c.directErr) != errString(c.batchErr) {
					t.Errorf("%s/%s %s: error mismatch: direct=%q batched=%q",
						name, fn, kind, errString(c.directErr), errString(c.batchErr))
					continue
				}
				if c.directErr != nil {
					continue
				}
				if db, bb := mustJSON(t, c.direct), mustJSON(t, c.batched); !bytes.Equal(db, bb) {
					t.Errorf("%s/%s %s: batched result diverges:\ndirect:  %s\nbatched: %s",
						name, fn, kind, db, bb)
				}
			}
		}
	}
}

// TestRunCancellation: a cancelled context turns every unevaluated cell
// into a prompt per-query context.Canceled.
func TestRunCancellation(t *testing.T) {
	res, err := mira.Analyze("stream.c", benchprogs.Stream, mira.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var queries []mira.Query
	for n := int64(1); n <= 20; n++ {
		queries = append(queries, mira.Query{
			Fn: "stream", Env: mira.IntArgs(map[string]int64{"n": n}), Kind: mira.KindStatic,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range res.Run(ctx, queries) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("query %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	// The same batch with a live context evaluates normally.
	for i, r := range res.Run(context.Background(), queries) {
		if r.Err != nil {
			t.Errorf("query %d after recovery: %v", i, r.Err)
		}
	}
}

// TestPromotedKinds: roofline and pbound are reachable from the public
// surface, and a repeated batch (served from the memo) returns the same
// values.
func TestPromotedKinds(t *testing.T) {
	res, err := mira.Analyze("stream.c", benchprogs.Stream, mira.Options{Arch: "arya"})
	if err != nil {
		t.Fatal(err)
	}
	env := mira.IntArgs(map[string]int64{"n": 1000})
	queries := []mira.Query{
		{Fn: "stream", Env: env, Kind: mira.KindRoofline},
		{Fn: "stream", Env: env, Kind: mira.KindPBound},
	}
	first := res.Run(context.Background(), queries)
	if first[0].Err != nil {
		t.Fatal(first[0].Err)
	}
	roof := first[0].Roofline
	if roof.Function != "stream" || roof.AttainableGFlops <= 0 {
		t.Errorf("roofline: %+v", roof)
	}
	if first[1].Err != nil {
		t.Fatal(first[1].Err)
	}
	pb := first[1].PBound
	// STREAM performs 4n FP source ops per NTIMES pass; the bound must
	// at least cover the measured 40n FPI.
	if pb.Flops < 40*1000 {
		t.Errorf("pbound flops = %d, want >= 40000", pb.Flops)
	}
	if pb.Loads <= 0 || pb.Stores <= 0 {
		t.Errorf("pbound loads/stores: %+v", pb)
	}
	batch := res.Run(context.Background(), queries)
	if batch[0].Err != nil || *batch[0].Roofline != *roof {
		t.Errorf("batched roofline diverges: %+v vs %+v (%v)", batch[0].Roofline, roof, batch[0].Err)
	}
	if batch[1].Err != nil || *batch[1].PBound != *pb {
		t.Errorf("batched pbound diverges: %+v vs %+v (%v)", batch[1].PBound, pb, batch[1].Err)
	}
}
