// Quickstart: analyze a small kernel statically, evaluate the parametric
// model at several problem sizes, and cross-check one size against an
// actual execution on the built-in VM.
package main

import (
	"context"
	"fmt"
	"log"

	"mira"
	"mira/internal/vm"
)

const src = `
double axpy(double *x, double *y, int n, double a) {
	int i;
	for (i = 0; i < n; i++) {
		y[i] = a * x[i] + y[i];
	}
	return y[0];
}
`

func main() {
	res, err := mira.Analyze("axpy.c", src, mira.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The model is parametric in n: evaluating it needs no execution and
	// is O(1) in the problem size. Result.Run evaluates a batch of query
	// cells, one per problem size here.
	fmt.Println("Static FPI prediction for axpy:")
	sizes := []int64{1000, 1_000_000, 100_000_000}
	var queries []mira.Query
	for _, n := range sizes {
		queries = append(queries, mira.Query{Fn: "axpy", Env: mira.IntArgs(map[string]int64{"n": n}), Kind: mira.KindStatic})
	}
	for i, r := range res.Run(context.Background(), queries) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("  n=%-12d FPI=%-12d total instructions=%d\n", sizes[i], r.Metrics.FPI(), r.Metrics.Instrs)
	}

	// Validate one size dynamically: run the same compiled binary.
	n := int64(10000)
	m := res.Machine()
	x := m.Alloc(uint64(n))
	y := m.Alloc(uint64(n))
	for i := int64(0); i < n; i++ {
		m.SetF(x+uint64(i), 1.0)
		m.SetF(y+uint64(i), 2.0)
	}
	if _, err := m.Run("axpy", vm.Int(int64(x)), vm.Int(int64(y)), vm.Int(n), vm.Float(3.0)); err != nil {
		log.Fatal(err)
	}
	st, _ := m.FuncStatsByName("axpy")
	r := res.Run(context.Background(), []mira.Query{
		{Fn: "axpy", Env: mira.IntArgs(map[string]int64{"n": n}), Kind: mira.KindStatic},
	})[0]
	if r.Err != nil {
		log.Fatal(r.Err)
	}
	met := r.Metrics
	fmt.Printf("\nValidation at n=%d: measured FPI=%d, predicted FPI=%d (exact match: %t)\n",
		n, st.FPIInclusive(), met.FPI(), int64(st.FPIInclusive()) == met.FPI())
}
