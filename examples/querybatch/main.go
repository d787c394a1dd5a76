// Querybatch: the query API. One analysis, one batched Run call
// evaluating a whole query matrix — static FPI across problem sizes,
// Table II categories, a roofline placement, and the PBound source-only
// baseline — with per-query errors and a cancellable context.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"mira"
)

const src = `
double smooth(double *u, double *f, int n, double dx) {
	int i;
	double c;
	c = dx * dx * 0.5;
	for (i = 1; i < n - 1; i++) {
		u[i] = (u[i - 1] + u[i + 1] + f[i] * (2.0 * c)) * 0.5;
	}
	return u[0];
}
`

func main() {
	// ^C cancels the whole batch: every unevaluated query comes back
	// with a per-query context error instead of the process dying.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := mira.AnalyzeContext(ctx, "smooth.c", src, mira.Options{Arch: "arya"})
	if err != nil {
		log.Fatal(err)
	}

	env := func(n int64) mira.Env { return mira.IntArgs(map[string]int64{"n": n}) }
	queries := []mira.Query{
		{Fn: "smooth", Env: env(1_000), Kind: mira.KindStatic},
		{Fn: "smooth", Env: env(1_000_000), Kind: mira.KindStatic},
		{Fn: "smooth", Env: env(100_000_000), Kind: mira.KindStatic},
		{Fn: "smooth", Env: env(1_000_000), Kind: mira.KindCategories},
		{Fn: "smooth", Env: env(1_000_000), Kind: mira.KindRoofline},
		{Fn: "smooth", Env: env(1_000_000), Kind: mira.KindRoofline, Arch: "frankenstein"},
		{Fn: "smooth", Env: env(1_000_000), Kind: mira.KindPBound},
		{Fn: "no_such_function", Env: env(10), Kind: mira.KindStatic}, // fails alone
	}

	fmt.Println("One batched Run over the query matrix:")
	for _, r := range res.Run(ctx, queries) {
		fmt.Printf("  %-18s n=%-12v ", r.Query.Kind, r.Query.Env["n"])
		switch {
		case r.Err != nil:
			fmt.Printf("error: %v\n", r.Err)
		case r.Metrics != nil:
			fmt.Printf("FPI=%d instrs=%d\n", r.Metrics.FPI(), r.Metrics.Instrs)
		case r.Categories != nil:
			fmt.Printf("%d categories (SSE2 packed arithmetic = %d)\n",
				len(r.Categories), r.Categories["SSE2 packed arithmetic instruction"])
		case r.Roofline != nil:
			fmt.Printf("AI=%.2f attainable=%.1f GF/s on %s\n",
				r.Roofline.InstrAI, r.Roofline.AttainableGFlops, archOf(r.Query))
		case r.PBound != nil:
			fmt.Printf("source-only bound: flops=%d loads=%d stores=%d\n",
				r.PBound.Flops, r.PBound.Loads, r.PBound.Stores)
		}
	}
}

func archOf(q mira.Query) string {
	if q.Arch != "" {
		return q.Arch
	}
	return "arya (analysis default)"
}
