// Annotation example: the paper's Listing 3/6 scenarios. Loops whose
// bounds come from array elements or min/max calls cannot be modeled
// statically; #pragma @Annotation directives supply the missing pieces,
// and parameter-valued annotations become inputs of the generated model.
package main

import (
	"context"
	"fmt"
	"log"

	"mira"
)

const unannotated = `
extern int min(int a, int b);
extern int max(int a, int b);
double kernel() {
	double s; int i; int j;
	s = 0.0;
	for(i = 1; i <= 5; i++)
		for(j = min(6 - i, 3); j <= max(8 - i, i); j++)
		{
			s = s + 1.0;
		}
	return s;
}
`

const annotated = `
extern int min(int a, int b);
extern int max(int a, int b);
double kernel() {
	double s; int i; int j;
	s = 0.0;
	for(i = 1; i <= 5; i++) {
		#pragma @Annotation {lp_iter:inner_trips}
		for(j = min(6 - i, 3); j <= max(8 - i, i); j++)
		{
			s = s + 1.0;
		}
	}
	return s;
}
`

func main() {
	// Without an annotation, Mira refuses: the iteration domain is not a
	// convex polyhedron (paper Listing 3 / Fig. 4d).
	_, err := mira.Analyze("listing3.c", unannotated, mira.Options{})
	fmt.Printf("Unannotated Listing 3 analysis fails as expected:\n  %v\n\n", err)

	// With {lp_iter:inner_trips}, the model generates, parameterized by
	// the user-supplied trip count.
	res, err := mira.Analyze("listing3_annotated.c", annotated, mira.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, trips := range []int64{3, 5, 8} {
		r := res.Run(context.Background(), []mira.Query{
			{Fn: "kernel", Env: mira.IntArgs(map[string]int64{"inner_trips": trips}), Kind: mira.KindStatic},
		})[0]
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("inner_trips=%d -> predicted FPI %d (5 outer iterations x %d)\n",
			trips, r.Metrics.FPI(), trips)
	}

	fmt.Println("\nGenerated Python model:")
	fmt.Println(res.PythonModel())
}
