package report

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mira/internal/engine"
	"mira/internal/vm"
)

// kernelSection validates kernelSrc's FPI at sizes against the VM.
func kernelSection(sizes ...int64) ValidationSection {
	points := make([]ValidationPoint, len(sizes))
	for i, n := range sizes {
		points[i] = ValidationPoint{Label: Int(n), Env: map[string]int64{"n": n}}
	}
	return ValidationSection{
		Name:     "kernel",
		Workload: WorkloadRef{Source: kernelSrc},
		Points:   points,
		Funcs:    []ValidationFunc{{Fn: "kernel"}},
		Entry:    "kernel",
		Args: func(m *vm.Machine, p map[string]int64) []vm.Value {
			return []vm.Value{vm.Int(int64(m.Alloc(uint64(p["n"])))), vm.Int(p["n"])}
		},
	}
}

func TestValidationSectionRows(t *testing.T) {
	sec := kernelSection(10, 1000)
	sec.Layout = LayoutAblation
	rows, err := sec.Rows(context.Background(), testRunner(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int64{10, 1000} {
		r := rows[i]
		// One multiply and one add per element, exact on the VM.
		if r.Static != 2*n || r.Dynamic != r.Static || r.PBound != 2*n {
			t.Errorf("n=%d: %+v, want static = dynamic = pbound = %d", n, r, 2*n)
		}
	}
	tab := sec.Table(rows)
	if len(tab.Columns) != 6 || len(tab.Rows) != 2 {
		t.Errorf("ablation table shape: %d columns, %d rows", len(tab.Columns), len(tab.Rows))
	}
}

// TestValidationSectionFailures: a bad section fails its suite with the
// section's position, never a partial table or a panic.
func TestValidationSectionFailures(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*ValidationSection)
		want string
	}{
		{"unknown model function", func(s *ValidationSection) { s.Funcs = []ValidationFunc{{Fn: "nope"}} }, "nope"},
		{"unknown VM function", func(s *ValidationSection) { s.Entry = "nope" }, `vm: no function "nope"`},
		{"missing arguments", func(s *ValidationSection) { s.Args = nil }, "takes 2 args, got 0"},
		{"no points", func(s *ValidationSection) { s.Points = nil }, "needs points and functions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sec := kernelSection(10)
			tc.edit(&sec)
			_, err := testRunner(t).Run(context.Background(), Suite{Name: "v", Sections: []Section{sec}})
			if err == nil {
				t.Fatal("suite succeeded")
			}
			if !strings.Contains(err.Error(), `report: suite "v" section 0`) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want the section position and %q", err, tc.want)
			}
		})
	}
}

// TestValidationSectionCancellation: once ctx is done no further VM run
// starts and the section returns ctx.Err().
func TestValidationSectionCancellation(t *testing.T) {
	r := NewRunner(engine.New(engine.Options{Workers: 1}))
	sec := kernelSection(10, 20, 30)
	args := sec.Args
	runs := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sec.Args = func(m *vm.Machine, p map[string]int64) []vm.Value {
		runs++
		cancel()
		return args(m, p)
	}
	if _, err := sec.Rows(ctx, r); err != context.Canceled {
		t.Errorf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if runs != 1 {
		t.Errorf("%d VM runs started, want 1 (none after the cancel)", runs)
	}

	runs = 0
	if _, err := sec.Rows(ctx, r); err != context.Canceled {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
	_, err := r.Run(ctx, Suite{Name: "v", Sections: []Section{sec}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("suite err = %v, want context.Canceled", err)
	}
	if runs != 0 {
		t.Errorf("%d VM runs started under a cancelled ctx", runs)
	}
}
