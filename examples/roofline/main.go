// Roofline example: the paper's Sec. IV-D2 prediction. Computes
// instruction-based arithmetic intensity for cg_solve from the static
// model and places it on the rooflines of the two evaluation machines —
// including the Haswell box whose missing FP hardware counters make the
// static route the only one available (Sec. IV-D1).
package main

import (
	"context"
	"fmt"
	"log"

	"mira/internal/arch"
	"mira/internal/dynamic"
	"mira/internal/engine"
	"mira/internal/experiments"
	"mira/internal/report"
	"mira/internal/vm"
)

func main() {
	ctx := context.Background()
	eng := engine.New(engine.Options{})
	s := experiments.MiniFESizes{NX: 10, NY: 10, NZ: 10, MaxIter: 10, NnzRowAnnotation: 19}
	p, err := report.NewRunner(eng).Analyze(ctx, report.WorkloadRef{Name: "minife"})
	if err != nil {
		log.Fatal(err)
	}

	// One roofline cell per machine, the description carried as a
	// per-query override.
	for _, d := range []*arch.Description{arch.Arya(), arch.Frankenstein()} {
		res := p.RunOne(ctx, engine.Query{Fn: "cg_solve", Env: s.MiniFEEnv(), Kind: engine.KindRoofline, ArchDesc: d})
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("%s (peak %.0f GF/s, bw %.0f GB/s):\n  %s\n\n",
			d.Name, d.PeakGFlops(), d.MemBandwidthGBs, res.Roofline)
	}

	// The hardware-counter angle: on arya (Haswell-like) PAPI_FP_INS does
	// not exist, so a dynamic profiler cannot produce the number the
	// static model just did.
	prof := dynamic.New(vm.New(p.Obj), arch.Arya())
	if _, err := prof.Read("cg_solve", dynamic.PAPI_FP_INS); err != nil {
		fmt.Printf("Dynamic measurement on arya fails as the paper describes:\n  %v\n", err)
	}
}
