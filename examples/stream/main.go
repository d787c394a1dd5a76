// STREAM example: reproduce a Table III-style validation row and show the
// static model evaluated at the paper's full 100M-element size — something
// the dynamic side would need gigabytes and minutes for, evaluated here in
// microseconds because the model is closed-form (paper Sec. IV-D1).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"mira/internal/engine"
	"mira/internal/experiments"
	"mira/internal/expr"
	"mira/internal/report"
)

func main() {
	ctx := context.Background()
	runner := report.NewRunner(engine.New(engine.Options{}))

	// Paired static/dynamic validation at a VM-friendly size: the
	// table_iii suite at one size.
	cfg := experiments.PaperConfig()
	cfg.StreamSizes = []int64{2_000_000}
	rep, err := runner.Run(ctx, experiments.SuiteMap(cfg)["table_iii"])
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.EncodeText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Static-only evaluation at the paper's sizes.
	a, err := runner.Analyze(ctx, report.WorkloadRef{Name: "stream"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nStatic model at the paper's sizes (Table III 'Mira' column):")
	for _, n := range []int64{2_000_000, 50_000_000, 100_000_000} {
		start := time.Now()
		res := a.RunOne(ctx, engine.Query{Fn: "stream", Env: expr.EnvFromInts(map[string]int64{"n": n}), Kind: engine.KindStatic})
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("  n=%-12d FPI=%-14.4g evaluated in %v\n", n, float64(res.Metrics.FPI()), time.Since(start))
	}
	fmt.Println("\nPaper's Mira column: 8.20E7 (2M), 4.100E9 (50M), 2.050E10 (100M).")
	fmt.Println("Our STREAM source performs 40 FPI/element (4 kernels x 10 iterations);")
	fmt.Println("see the internal/experiments package doc for the per-kernel accounting difference.")
}
