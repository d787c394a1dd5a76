package experiments

import (
	"fmt"

	"mira/internal/expr"
	"mira/internal/report"
	"mira/internal/vm"
)

// MiniFESizes describes one miniFE configuration.
type MiniFESizes struct {
	NX, NY, NZ int64
	MaxIter    int64
	// NnzRowAnnotation is the nnz_row value the user supplies for the
	// CSR matvec inner loop (see the package doc for the choice).
	NnzRowAnnotation int64
}

// Rows returns nx*ny*nz.
func (s MiniFESizes) Rows() int64 { return s.NX * s.NY * s.NZ }

// TrueNNZ returns the exact stencil nonzero count (3n-2 per dimension).
func (s MiniFESizes) TrueNNZ() int64 {
	return (3*s.NX - 2) * (3*s.NY - 2) * (3*s.NZ - 2)
}

// label renders the brick as the paper's tables do ("30x30x30").
func (s MiniFESizes) label() string { return fmt.Sprintf("%dx%dx%d", s.NX, s.NY, s.NZ) }

// point is the brick as a labelled validation point.
func (s MiniFESizes) point() report.ValidationPoint {
	return report.ValidationPoint{Label: report.Str(s.label()), Env: s.MiniFEPoint()}
}

// MiniFEPoint builds the configuration's parameter bindings in sweep
// point form — what the prediction grid and the validation sections
// feed the engine, and what minifeArgs stages on the VM.
func (s MiniFESizes) MiniFEPoint() map[string]int64 {
	return map[string]int64{
		"nx": s.NX, "ny": s.NY, "nz": s.NZ,
		"n":        s.Rows(),
		"max_iter": s.MaxIter,
		"nnz_row":  s.NnzRowAnnotation,
	}
}

// MiniFEEnv builds the model evaluation environment.
func (s MiniFESizes) MiniFEEnv() expr.Env {
	return expr.EnvFromInts(s.MiniFEPoint())
}

// minifeArgs stages miniFE's CSR matrix object (nrows, row_start, cols,
// vals, room for 27 nonzeros per row) and its five vector objects
// (length, coefficients).
func minifeArgs(m *vm.Machine, p map[string]int64) []vm.Value {
	n := p["n"]
	maxNNZ := uint64(27 * n)
	rowStart, cols, vals := m.Alloc(uint64(n+1)), m.Alloc(maxNNZ), m.Alloc(maxNNZ)
	A := m.Alloc(4)
	m.SetI(A+0, n)
	m.SetI(A+1, int64(rowStart))
	m.SetI(A+2, int64(cols))
	m.SetI(A+3, int64(vals))
	args := []vm.Value{vm.Int(p["nx"]), vm.Int(p["ny"]), vm.Int(p["nz"]), vm.Int(p["max_iter"]), vm.Int(int64(A))}
	for i := 0; i < 5; i++ { // b, x, r, p, Ap
		coefs := m.Alloc(uint64(n))
		v := m.Alloc(2)
		m.SetI(v+0, n)
		m.SetI(v+1, int64(coefs))
		args = append(args, vm.Int(int64(v)))
	}
	return args
}
