package cc

import (
	"math"

	"mira/internal/ir"
)

// Builtin library bodies for extern declarations. These stand in for libm
// and similar system libraries: the VM executes them (so dynamic "TAU"
// counts include their instructions), but the static analyzer sees only
// the call site — reproducing the paper's observation that external
// library content is invisible to Mira and accounts for part of the
// static-vs-dynamic gap (Sec. IV-D1).
//
// Calling convention matches compiled code: parameters arrive in r0..rk.

type asm struct {
	instrs []ir.Instr
}

func (a *asm) op(op ir.Op, rd, rs1, rs2 int32, imm int64) int {
	a.instrs = append(a.instrs, ir.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
	return len(a.instrs) - 1
}

func (a *asm) patch(idx int, target int) { a.instrs[idx].Imm = int64(target) }

func fbits(f float64) int64 { return int64(math.Float64bits(f)) }

// libBody returns the instruction body for a known extern function.
func libBody(name string) ([]ir.Instr, bool) {
	switch name {
	case "sqrt":
		// sqrtsd plus a Newton refinement step, libm-style: the extra FPI
		// here is what static analysis cannot see.
		a := &asm{}
		a.op(ir.PUSH, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.SQRTSD, 1, 0, ir.NoReg, 0) // r1 = sqrt(x)
		a.op(ir.MULSD, 2, 1, 1, 0)         // r2 = r1*r1
		a.op(ir.SUBSD, 3, 2, 0, 0)         // r3 = r1*r1 - x
		a.op(ir.MOVSDI, 4, ir.NoReg, ir.NoReg, fbits(0.5))
		a.op(ir.MULSD, 5, 3, 4, 0) // r5 = 0.5*(r1*r1 - x)
		a.op(ir.DIVSD, 6, 5, 1, 0) // r6 = r5 / r1
		a.op(ir.SUBSD, 7, 1, 6, 0) // r7 = r1 - r6 (refined root)
		a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETF, ir.NoReg, 7, ir.NoReg, 0)
		return a.instrs, true
	case "fabs":
		a := &asm{}
		a.op(ir.PUSH, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.MOVSDI, 1, ir.NoReg, ir.NoReg, fbits(0)) // r1 = 0.0
		a.op(ir.UCOMISD, ir.NoReg, 0, 1, 0)
		j := a.op(ir.JGE, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.SUBSD, 2, 1, 0, 0) // r2 = -x
		a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETF, ir.NoReg, 2, ir.NoReg, 0)
		pos := a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETF, ir.NoReg, 0, ir.NoReg, 0)
		a.patch(j, pos)
		return a.instrs, true
	case "min":
		a := &asm{}
		a.op(ir.PUSH, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.CMP, ir.NoReg, 0, 1, 0)
		j := a.op(ir.JLE, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETI, ir.NoReg, 1, ir.NoReg, 0)
		pos := a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETI, ir.NoReg, 0, ir.NoReg, 0)
		a.patch(j, pos)
		return a.instrs, true
	case "max":
		a := &asm{}
		a.op(ir.PUSH, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.CMP, ir.NoReg, 0, 1, 0)
		j := a.op(ir.JGE, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETI, ir.NoReg, 1, ir.NoReg, 0)
		pos := a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETI, ir.NoReg, 0, ir.NoReg, 0)
		a.patch(j, pos)
		return a.instrs, true
	case "fmin":
		a := &asm{}
		a.op(ir.PUSH, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.UCOMISD, ir.NoReg, 0, 1, 0)
		j := a.op(ir.JLE, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETF, ir.NoReg, 1, ir.NoReg, 0)
		pos := a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETF, ir.NoReg, 0, ir.NoReg, 0)
		a.patch(j, pos)
		return a.instrs, true
	case "fmax":
		a := &asm{}
		a.op(ir.PUSH, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.UCOMISD, ir.NoReg, 0, 1, 0)
		j := a.op(ir.JGE, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETF, ir.NoReg, 1, ir.NoReg, 0)
		pos := a.op(ir.POP, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		a.op(ir.RETF, ir.NoReg, 0, ir.NoReg, 0)
		a.patch(j, pos)
		return a.instrs, true
	case "exit":
		// Halt marker: jumping past the end stops the VM cleanly; modeled
		// as a plain return so callers terminate.
		a := &asm{}
		a.op(ir.RETV, ir.NoReg, ir.NoReg, ir.NoReg, 0)
		return a.instrs, true
	}
	return nil, false
}
