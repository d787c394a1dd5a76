package experiments

import (
	"context"
	"fmt"

	"mira/internal/engine"
	"mira/internal/report"
)

// SuiteConfig parameterizes the named paper suites: which sizes the
// dynamic (VM) validation columns run at. The static model is free at
// any size; the VM is the expensive part, so servers and tests run the
// proportionally scaled configuration while the CLI defaults to the
// paper-faithful one.
type SuiteConfig struct {
	// StreamSizes are Table III's paired static/dynamic sizes.
	StreamSizes []int64
	// DgemmSizes and DgemmReps parameterize Table IV.
	DgemmSizes []int64
	DgemmReps  int64
	// MiniSmall and MiniLarge are the two miniFE configurations
	// (Tables II/V, Fig. 7c/d, the prediction).
	MiniSmall, MiniLarge MiniFESizes
	// Fig7Stream and Fig7Dgemm are the Fig. 7a/7b x-axes.
	Fig7Stream, Fig7Dgemm []int64
	// AblationSizes are the PBound-vs-Mira comparison points.
	AblationSizes []int64
	// PredictionArch names the architecture description the Sec. IV-D2
	// prediction runs on.
	PredictionArch string
}

// PaperConfig is the paper-faithful configuration mira-bench defaults
// to: the exact miniFE bricks, STREAM/DGEMM dynamic runs at the largest
// sizes the VM substitutes for the testbed (minutes of VM time).
func PaperConfig() SuiteConfig {
	return SuiteConfig{
		StreamSizes:    []int64{2_000_000, 5_000_000, 10_000_000},
		DgemmSizes:     []int64{64, 96, 128},
		DgemmReps:      4,
		MiniSmall:      MiniFESizes{NX: 30, NY: 30, NZ: 30, MaxIter: 20, NnzRowAnnotation: 25},
		MiniLarge:      MiniFESizes{NX: 35, NY: 40, NZ: 45, MaxIter: 20, NnzRowAnnotation: 25},
		Fig7Stream:     []int64{1_000_000, 2_000_000, 5_000_000},
		Fig7Dgemm:      []int64{48, 64, 96},
		AblationSizes:  []int64{1024, 4096, 16384},
		PredictionArch: "arya",
	}
}

// ScaledConfig is the proportionally scaled configuration (see the
// package doc): every suite completes in seconds, so a resident
// daemon can serve POST /report without holding a connection for
// minutes. The miniFE annotations bind the rounded true average row
// length, the best value a careful user could supply at these sizes.
func ScaledConfig() SuiteConfig {
	small := MiniFESizes{NX: 6, NY: 6, NZ: 6, MaxIter: 8}
	small.NnzRowAnnotation = (small.TrueNNZ() + small.Rows()/2) / small.Rows()
	large := MiniFESizes{NX: 8, NY: 8, NZ: 8, MaxIter: 8}
	large.NnzRowAnnotation = (large.TrueNNZ() + large.Rows()/2) / large.Rows()
	return SuiteConfig{
		StreamSizes:    []int64{20_000, 50_000, 100_000},
		DgemmSizes:     []int64{16, 24, 32},
		DgemmReps:      2,
		MiniSmall:      small,
		MiniLarge:      large,
		Fig7Stream:     []int64{10_000, 20_000, 50_000},
		Fig7Dgemm:      []int64{12, 16, 24},
		AblationSizes:  []int64{256, 1024, 4096},
		PredictionArch: "arya",
	}
}

// Suites returns the named paper suites under c, in the paper's
// presentation order. Tables I and II wrap their experiment functions;
// every other suite is a declarative section. The engine and context
// are injected by the report runner, never held in package state.
func Suites(c SuiteConfig) []report.Suite {
	// Each workload's VM side; the sections below add points and a layout.
	stream := report.ValidationSection{Workload: report.WorkloadRef{Name: "stream"},
		Funcs: []report.ValidationFunc{{Fn: "stream"}}, Entry: "stream", Args: streamArgs}
	dgemm := report.ValidationSection{Workload: report.WorkloadRef{Name: "dgemm"},
		Funcs: []report.ValidationFunc{{Fn: "dgemm_bench", Display: "dgemm"}}, Entry: "dgemm_bench", Args: dgemmArgs}
	// waxpby and the matvec operator are reported per invocation,
	// matching the paper's per-call magnitudes.
	minife := report.ValidationSection{Workload: report.WorkloadRef{Name: "minife"},
		Funcs: []report.ValidationFunc{
			{Fn: "waxpby", PerCall: true}, {Fn: "MatVec::operator()", PerCall: true}, {Fn: "cg_solve"},
		}, Entry: "minife", Args: minifeArgs}
	smooth := report.ValidationSection{Workload: report.WorkloadRef{Name: "ablation"},
		Funcs: []report.ValidationFunc{{Fn: "smooth"}}, Entry: "smooth", Args: smoothArgs}
	dgemmBase := map[string]int64{"nrep": c.DgemmReps}
	return []report.Suite{
		{
			Name:  "table_i",
			Title: "Table I: loop coverage",
			Sections: []report.Section{report.SectionFunc(func(ctx context.Context, r *report.Runner) ([]report.Table, error) {
				rows, err := TableI(ctx, r.Engine())
				if err != nil {
					return nil, err
				}
				return []report.Table{TableITable(rows)}, nil
			})},
		},
		{
			Name:  "table_ii",
			Title: "Table II + Fig. 6: cg_solve instruction categories",
			Sections: []report.Section{report.SectionFunc(func(ctx context.Context, r *report.Runner) ([]report.Table, error) {
				rows, err := TableII(ctx, r.Engine(), c.MiniSmall)
				if err != nil {
					return nil, err
				}
				return []report.Table{TableIITable(rows)}, nil
			})},
		},
		{
			Name:  "table_iii",
			Title: "Table III: STREAM FPI (paper: err <= 0.47%)",
			Sections: []report.Section{validate(stream, report.LayoutRows, "table_iii",
				"STREAM validation (dynamic at scaled sizes)", sizePoints(c.StreamSizes, nil, sizeLabel))},
		},
		{
			Name:  "table_iv",
			Title: "Table IV: DGEMM FPI (paper: err <= 0.05%)",
			Sections: []report.Section{validate(dgemm, report.LayoutRows, "table_iv",
				fmt.Sprintf("DGEMM validation (dynamic at scaled sizes, nrep=%d)", c.DgemmReps),
				sizePoints(c.DgemmSizes, dgemmBase, plainLabel))},
		},
		{
			Name:  "table_v",
			Title: "Table V: miniFE per-function FPI (paper: err 0.011% - 3.08%)",
			Sections: []report.Section{validate(minife, report.LayoutRows, "table_v",
				fmt.Sprintf("miniFE validation (nnz_row annotation = %d)", c.MiniSmall.NnzRowAnnotation),
				[]report.ValidationPoint{c.MiniSmall.point(), c.MiniLarge.point()})},
		},
		{
			Name:  "fig7",
			Title: "Fig. 7: validation series",
			// The miniFE panels' points carry no label, so their x
			// column names the functions.
			Sections: []report.Section{
				validate(stream, report.LayoutPanel, "fig7_0", "Fig 7(a): STREAM FPI",
					sizePoints(c.Fig7Stream, nil, plainLabel)),
				validate(dgemm, report.LayoutPanel, "fig7_1", "Fig 7(b): DGEMM FPI",
					sizePoints(c.Fig7Dgemm, dgemmBase, plainLabel)),
				validate(minife, report.LayoutPanel, "fig7_2", "Fig 7(c): miniFE FPI "+c.MiniSmall.label(),
					[]report.ValidationPoint{{Env: c.MiniSmall.MiniFEPoint()}}),
				validate(minife, report.LayoutPanel, "fig7_3", "Fig 7(d): miniFE FPI "+c.MiniLarge.label(),
					[]report.ValidationPoint{{Env: c.MiniLarge.MiniFEPoint()}}),
			},
		},
		{
			Name:  "prediction",
			Title: "Prediction: instruction-based arithmetic intensity (paper: 0.53)",
			// The prediction is fully declarative: a roofline grid
			// section over the embedded miniFE workload.
			Sections: []report.Section{report.GridSection{
				Name:     "prediction",
				Caption:  "cg_solve roofline assessment",
				Workload: report.WorkloadRef{Name: "minife"},
				Fn:       "cg_solve",
				Kind:     engine.KindRoofline,
				Points:   []map[string]int64{c.MiniSmall.MiniFEPoint(), c.MiniLarge.MiniFEPoint()},
				Archs:    []string{c.PredictionArch},
			}},
		},
		{
			Name:  "multiarch",
			Title: "Cross-architecture ranking: DGEMM across the machine registry",
			// Every embedded machine description (plus any -arch-dir
			// loads) ranked by the roofline's attainable GFLOP/s for one
			// DGEMM point — the "which machine should run this kernel"
			// table the registry exists for.
			Sections: []report.Section{report.CompareSection{
				Name:     "multiarch",
				Caption:  "dgemm_bench ranked by attainable GFLOP/s",
				Workload: report.WorkloadRef{Name: "dgemm"},
				Fn:       "dgemm_bench",
				Env: map[string]int64{
					"n":    c.DgemmSizes[len(c.DgemmSizes)-1],
					"nrep": c.DgemmReps,
				},
			}},
		},
		{
			Name:  "ablation",
			Title: "Ablation: PBound (source-only) vs Mira (source+binary)",
			// The smooth kernel carries constant-foldable and loop-invariant
			// FP subexpressions: source-only counting (PBound) overestimates
			// what the optimized binary executes, while Mira tracks it.
			Sections: []report.Section{validate(smooth, report.LayoutAblation, "ablation",
				"Ablation: source-only (PBound) vs source+binary (Mira) FPI estimates",
				sizePoints(c.AblationSizes, nil, report.Int))},
		},
	}
}

// SuiteMap indexes the named suites by name.
func SuiteMap(c SuiteConfig) map[string]report.Suite {
	out := map[string]report.Suite{}
	for _, s := range Suites(c) {
		out[s.Name] = s
	}
	return out
}

// SuiteNames lists the named suites in presentation order.
func SuiteNames(c SuiteConfig) []string {
	suites := Suites(c)
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.Name
	}
	return names
}

// validate specializes a workload's validation section.
func validate(w report.ValidationSection, layout report.ValidationLayout, name, caption string, points []report.ValidationPoint) report.ValidationSection {
	w.Layout, w.Name, w.Caption, w.Points = layout, name, caption, points
	return w
}
