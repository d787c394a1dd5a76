package model

import (
	"mira/internal/expr"
	"mira/internal/ir"
)

// BuildModel exposes the hand-built two-function model to the external
// test package.
var BuildModel = buildModel

// EvaluateOpcodesExclusive is the walker's body-only per-opcode view:
// the oracle for an exclusive compilation's EvalOps.
func (m *Model) EvaluateOpcodesExclusive(name string, env expr.Env) (map[ir.Op]int64, error) {
	return m.opcodes(name, env, true)
}
