// miniFE example: the paper's mini-application walk-through. Generates
// the model for the CG solver call chain, prints cg_solve's Table II
// category breakdown and Fig. 6 distribution, validates against a dynamic
// run, and prints the paper-style generated Python model for waxpby.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"mira/internal/engine"
	"mira/internal/experiments"
	"mira/internal/report"
)

func main() {
	ctx := context.Background()
	runner := report.NewRunner(engine.New(engine.Options{}))

	// Table II + Fig. 6, then the Table V validation against dynamic
	// runs, both at the scaled miniFE bricks.
	suites := experiments.SuiteMap(experiments.ScaledConfig())
	for _, name := range []string{"table_ii", "table_v"} {
		rep, err := runner.Run(ctx, suites[name])
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.EncodeText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	// The generated Python model (paper Fig. 5 artifact) for waxpby.
	p, err := runner.Analyze(ctx, report.WorkloadRef{Name: "minife"})
	if err != nil {
		log.Fatal(err)
	}
	py := p.PythonModel()
	fmt.Println("\nGenerated Python model (excerpt):")
	for _, line := range strings.Split(py, "\n") {
		if strings.Contains(line, "def waxpby") || strings.Contains(line, "def handle_function_call") {
			fmt.Println("  " + line)
		}
	}
}
