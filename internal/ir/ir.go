// Package ir defines the synthetic x86-64-flavoured instruction set that
// Mira's compiler (internal/cc) targets and its virtual machine
// (internal/vm) executes.
//
// The ISA plays the role x86-64 plays in the paper: the compiled, optimized
// instruction stream whose per-category counts the static model predicts.
// Opcode mnemonics and category structure follow the Intel SDM grouping the
// paper's architecture description file uses (Table II): integer
// arithmetic, integer control transfer, integer data transfer, SSE2 data
// movement, SSE2 packed/scalar arithmetic, 64-bit mode instructions, and
// miscellaneous.
//
// The machine model is three-address with per-function virtual registers
// (an infinite register file — register pressure is not part of the paper's
// error model) and a single word-addressed memory: each address holds one
// 64-bit word, either an integer or a raw-bits double. Memory operands use
// base+index+displacement addressing like x86.
package ir

import "fmt"

// Op is an opcode.
type Op uint16

// Opcodes. Operand conventions are documented per group; Rd/Rs1/Rs2 are
// virtual register indexes, Imm is a 64-bit immediate. NoReg (-1) marks an
// unused register slot.
const (
	NOP Op = iota

	// --- Integer data transfer (mov family, stack ops) ---
	MOVRR   // Rd <- Rs1
	MOVRI   // Rd <- Imm
	MOVLD   // Rd <- mem[Rs1 + Rs2 + Imm]          (mov rd, [base+idx+disp])
	MOVST   // mem[Rd + Rs2 + Imm] <- Rs1          (mov [base+idx+disp], rs)
	PUSH    // frame bookkeeping; counted, no VM effect beyond the push slot
	POP     //
	ARGI    // pass integer argument Rs1 (mov rdi/rsi/... , rs)
	GETRETI // Rd <- integer return value (mov rd, rax)

	// --- Integer arithmetic / logic ---
	ADD   // Rd <- Rs1 + Rs2
	ADDI  // Rd <- Rs1 + Imm
	SUB   // Rd <- Rs1 - Rs2
	SUBI  // Rd <- Rs1 - Imm
	IMUL  // Rd <- Rs1 * Rs2
	IMULI // Rd <- Rs1 * Imm
	IDIV  // Rd <- Rs1 / Rs2 (trapping on zero)
	IREM  // Rd <- Rs1 % Rs2
	NEG   // Rd <- -Rs1
	INC   // Rd <- Rs1 + 1
	DEC   // Rd <- Rs1 - 1
	SHLI  // Rd <- Rs1 << Imm
	SARI  // Rd <- Rs1 >> Imm (arithmetic)
	AND   // Rd <- Rs1 & Rs2
	OR    // Rd <- Rs1 | Rs2
	XOR   // Rd <- Rs1 ^ Rs2
	CMP   // flags <- sign(Rs1 - Rs2)
	CMPI  // flags <- sign(Rs1 - Imm)
	TEST  // flags <- sign(Rs1)
	LEA   // Rd <- Rs1 + Rs2 + Imm (address arithmetic; data transfer group)

	// --- Integer control transfer ---
	JMP  // ip <- Imm (absolute instruction index within the function)
	JE   // jump if flags == 0
	JNE  // jump if flags != 0
	JL   // jump if flags < 0
	JLE  // jump if flags <= 0
	JG   // jump if flags > 0
	JGE  // jump if flags >= 0
	CALL // call function symbol Imm
	RETV // return void
	RETI // return integer Rs1
	RETF // return double Rs1

	// --- SSE2 data movement ---
	MOVSDLD  // Fd <- mem[Rs1 + Rs2 + Imm]            (movsd xmm, m64)
	MOVSDST  // mem[Rd + Rs2 + Imm] <- Fs1            (movsd m64, xmm)
	MOVSDRR  // Fd <- Fs1                             (movsd xmm, xmm)
	MOVSDI   // Fd <- double(Imm bits)                (movsd xmm, [rip+const])
	MOVAPDLD // Fd,Fd+1 <- mem[Rs1+Rs2+Imm], mem[..+1] (movapd xmm, m128)
	MOVAPDST // mem[Rd+Rs2+Imm], mem[..+1] <- Fs1,Fs1+1
	ARGF     // pass double argument Fs1 (movsd xmm0..., fs)
	GETRETF  // Fd <- double return value (movsd fd, xmm0)

	// --- SSE2 packed/scalar arithmetic (the paper's FPI category) ---
	ADDSD  // Fd <- Fs1 + Fs2
	SUBSD  // Fd <- Fs1 - Fs2
	MULSD  // Fd <- Fs1 * Fs2
	DIVSD  // Fd <- Fs1 / Fs2
	SQRTSD // Fd <- sqrt(Fs1)
	ADDPD  // Fd,Fd+1 <- Fs1,Fs1+1 + Fs2,Fs2+1
	SUBPD  //
	MULPD  //
	DIVPD  //

	// --- SSE2 compare / convert ---
	UCOMISD   // flags <- sign(Fs1 - Fs2)
	CVTSI2SD  // Fd <- double(Rs1)
	CVTTSD2SI // Rd <- int64(trunc(Fs1))

	// --- 64-bit mode instructions ---
	MOVSXD // Rd <- sign-extend-32->64(Rs1); index widening on array access

	// --- Misc / runtime environment ---
	ALLOC // Rd <- current heap top; heap top += Rs1 words (sub rsp, n)
	CDQ   // sign-extension helper before IDIV

	opCount // sentinel
)

// NoReg marks an unused register operand slot.
const NoReg int32 = -1

// Category is a coarse instruction category matching the paper's Table II
// rows. The architecture description file (internal/arch) refines these
// into the full 64-category x86 scheme.
type Category uint8

// Categories.
const (
	CatIntArith Category = iota
	CatIntControl
	CatIntData
	CatSSEMove
	CatSSEArith
	CatSSECompare
	CatSSEConvert
	Cat64Bit
	CatMisc
	NumCategories
)

var categoryNames = [NumCategories]string{
	"Integer arithmetic instruction",
	"Integer control transfer instruction",
	"Integer data transfer instruction",
	"SSE2 data movement instruction",
	"SSE2 packed arithmetic instruction",
	"SSE2 compare instruction",
	"SSE2 conversion instruction",
	"64-bit mode instruction",
	"Misc Instruction",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// opInfo is static per-opcode metadata.
type opInfo struct {
	name  string
	cat   Category
	flops int // floating-point operations performed (packed = 2)
}

var opTable = [opCount]opInfo{
	NOP: {"nop", CatMisc, 0},

	MOVRR:   {"mov", CatIntData, 0},
	MOVRI:   {"mov", CatIntData, 0},
	MOVLD:   {"mov", CatIntData, 0},
	MOVST:   {"mov", CatIntData, 0},
	PUSH:    {"push", CatIntData, 0},
	POP:     {"pop", CatIntData, 0},
	ARGI:    {"mov", CatIntData, 0},
	GETRETI: {"mov", CatIntData, 0},

	ADD:   {"add", CatIntArith, 0},
	ADDI:  {"add", CatIntArith, 0},
	SUB:   {"sub", CatIntArith, 0},
	SUBI:  {"sub", CatIntArith, 0},
	IMUL:  {"imul", CatIntArith, 0},
	IMULI: {"imul", CatIntArith, 0},
	IDIV:  {"idiv", CatIntArith, 0},
	IREM:  {"idiv", CatIntArith, 0},
	NEG:   {"neg", CatIntArith, 0},
	INC:   {"inc", CatIntArith, 0},
	DEC:   {"dec", CatIntArith, 0},
	SHLI:  {"shl", CatIntArith, 0},
	SARI:  {"sar", CatIntArith, 0},
	AND:   {"and", CatIntArith, 0},
	OR:    {"or", CatIntArith, 0},
	XOR:   {"xor", CatIntArith, 0},
	CMP:   {"cmp", CatIntArith, 0},
	CMPI:  {"cmp", CatIntArith, 0},
	TEST:  {"test", CatIntArith, 0},
	LEA:   {"lea", CatIntData, 0},

	JMP:  {"jmp", CatIntControl, 0},
	JE:   {"je", CatIntControl, 0},
	JNE:  {"jne", CatIntControl, 0},
	JL:   {"jl", CatIntControl, 0},
	JLE:  {"jle", CatIntControl, 0},
	JG:   {"jg", CatIntControl, 0},
	JGE:  {"jge", CatIntControl, 0},
	CALL: {"call", CatIntControl, 0},
	RETV: {"ret", CatIntControl, 0},
	RETI: {"ret", CatIntControl, 0},
	RETF: {"ret", CatIntControl, 0},

	MOVSDLD:  {"movsd", CatSSEMove, 0},
	MOVSDST:  {"movsd", CatSSEMove, 0},
	MOVSDRR:  {"movsd", CatSSEMove, 0},
	MOVSDI:   {"movsd", CatSSEMove, 0},
	MOVAPDLD: {"movapd", CatSSEMove, 0},
	MOVAPDST: {"movapd", CatSSEMove, 0},
	ARGF:     {"movsd", CatSSEMove, 0},
	GETRETF:  {"movsd", CatSSEMove, 0},

	ADDSD:  {"addsd", CatSSEArith, 1},
	SUBSD:  {"subsd", CatSSEArith, 1},
	MULSD:  {"mulsd", CatSSEArith, 1},
	DIVSD:  {"divsd", CatSSEArith, 1},
	SQRTSD: {"sqrtsd", CatSSEArith, 1},
	ADDPD:  {"addpd", CatSSEArith, 2},
	SUBPD:  {"subpd", CatSSEArith, 2},
	MULPD:  {"mulpd", CatSSEArith, 2},
	DIVPD:  {"divpd", CatSSEArith, 2},

	UCOMISD:   {"ucomisd", CatSSECompare, 0},
	CVTSI2SD:  {"cvtsi2sd", CatSSEConvert, 0},
	CVTTSD2SI: {"cvttsd2si", CatSSEConvert, 0},

	MOVSXD: {"movsxd", Cat64Bit, 0},

	ALLOC: {"sub", CatIntArith, 0},
	CDQ:   {"cdq", CatMisc, 0},
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < opCount && opTable[op].name != "" }

// Mnemonic returns the x86-style mnemonic.
func (op Op) Mnemonic() string {
	if !op.Valid() {
		return fmt.Sprintf("op%d", uint16(op))
	}
	return opTable[op].name
}

// Cat returns the default category of op.
func (op Op) Cat() Category {
	if !op.Valid() {
		return CatMisc
	}
	return opTable[op].cat
}

// Flops returns the floating-point operations one execution performs.
func (op Op) Flops() int {
	if !op.Valid() {
		return 0
	}
	return opTable[op].flops
}

// IsFPI reports whether the paper's FPI metric (PAPI_FP_INS) counts this
// instruction: the SSE2 packed/scalar arithmetic category.
func (op Op) IsFPI() bool { return op.Cat() == CatSSEArith }

// OpCount returns the number of defined opcodes (for table-driven tests).
func OpCount() int { return int(opCount) }

// OpN is one opcode's instruction count in a group of instructions. A
// group's counts are a slice of OpN sorted by opcode, with no zero
// counts.
type OpN struct {
	Op Op
	N  int64
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Rd  int32
	Rs1 int32
	Rs2 int32
	Imm int64
}

func (in Instr) String() string {
	switch in.Op {
	case MOVRI:
		return fmt.Sprintf("%-9s r%d, %d", in.Op.Mnemonic(), in.Rd, in.Imm)
	case MOVSDI:
		return fmt.Sprintf("%-9s f%d, #%d", in.Op.Mnemonic(), in.Rd, in.Imm)
	case MOVLD, MOVSDLD, MOVAPDLD:
		return fmt.Sprintf("%-9s r%d, [r%d+r%d+%d]", in.Op.Mnemonic(), in.Rd, in.Rs1, in.Rs2, in.Imm)
	case MOVST, MOVSDST, MOVAPDST:
		return fmt.Sprintf("%-9s [r%d+r%d+%d], r%d", in.Op.Mnemonic(), in.Rd, in.Rs2, in.Imm, in.Rs1)
	case JMP, JE, JNE, JL, JLE, JG, JGE:
		return fmt.Sprintf("%-9s .%d", in.Op.Mnemonic(), in.Imm)
	case CALL:
		return fmt.Sprintf("%-9s fn%d", in.Op.Mnemonic(), in.Imm)
	case RETV:
		return "ret"
	case RETI, RETF:
		return fmt.Sprintf("%-9s r%d", in.Op.Mnemonic(), in.Rs1)
	case CMPI, ADDI, SUBI, IMULI, SHLI, SARI:
		return fmt.Sprintf("%-9s r%d, r%d, %d", in.Op.Mnemonic(), in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%-9s r%d, r%d, r%d", in.Op.Mnemonic(), in.Rd, in.Rs1, in.Rs2)
	}
}

// IsJump reports whether the instruction is an intra-function jump whose
// Imm is an instruction index.
func (in Instr) IsJump() bool {
	switch in.Op {
	case JMP, JE, JNE, JL, JLE, JG, JGE:
		return true
	}
	return false
}

// IsReturn reports whether the instruction ends a function activation.
func (in Instr) IsReturn() bool {
	switch in.Op {
	case RETV, RETI, RETF:
		return true
	}
	return false
}
