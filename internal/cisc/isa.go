// Package cisc implements "CX", the synthetic microcoded CISC comparator the
// evaluation measures RISC I against. CX stands in for the VAX-11/780 class
// of machine the paper compared with: variable-length instructions built
// from an opcode byte plus general operand specifiers, arithmetic directly
// on memory operands, a rich procedure CALLS/RET that saves registers
// through a callee entry mask, and a microcoded execution engine at a 200 ns
// microcycle.
//
// CX is deliberately not binary-compatible with any real VAX; what matters
// for the reproduction is that it embodies the CISC design point — dense
// code, few registers, multi-cycle microcoded instructions, expensive
// procedure calls — with a documented, inspectable cost model: the opcode
// base costs in opTable and specCycles below, and accessCycles in cpu.go.
package cisc

import "fmt"

// General registers. r0..r11 are general purpose; AP, FP and SP have the
// VAX roles (argument pointer, frame pointer, stack pointer). PC is not a
// general register.
const (
	NumRegs = 15
	AP      = 12
	FP      = 13
	SP      = 14
)

// Op is a CX opcode byte.
type Op uint8

// The CX instruction set.
const (
	OpHALT Op = 0x00

	// Data movement.
	OpMOVL   Op = 0x10 // move longword
	OpMOVB   Op = 0x11 // move byte (low 8 bits)
	OpCVTBL  Op = 0x12 // byte -> long, sign-extended
	OpMOVZBL Op = 0x13 // byte -> long, zero-extended
	OpMOVAL  Op = 0x14 // move address of operand
	OpPUSHL  Op = 0x15 // push longword
	OpPOPL   Op = 0x16 // pop longword
	OpCLRL   Op = 0x17 // clear longword

	// Arithmetic and logic. The 2-operand forms overwrite their second
	// operand; 3-operand forms write a separate destination. Any operand
	// may be a memory reference.
	OpADDL2 Op = 0x20
	OpADDL3 Op = 0x21
	OpSUBL2 Op = 0x22
	OpSUBL3 Op = 0x23
	OpMULL2 Op = 0x24
	OpMULL3 Op = 0x25
	OpDIVL2 Op = 0x26
	OpDIVL3 Op = 0x27
	OpANDL3 Op = 0x28
	OpORL3  Op = 0x29
	OpXORL3 Op = 0x2A
	OpASHL  Op = 0x2B // arithmetic shift: negative count shifts right
	OpINCL  Op = 0x2C
	OpDECL  Op = 0x2D

	// Compare and test.
	OpCMPL Op = 0x30
	OpCMPB Op = 0x31
	OpTSTL Op = 0x32

	// Control transfer. BR and the conditional branches carry a 16-bit
	// PC-relative displacement; JMP takes a general operand specifier.
	OpBR   Op = 0x40
	OpJMP  Op = 0x41
	OpBEQ  Op = 0x50
	OpBNE  Op = 0x51
	OpBGT  Op = 0x52
	OpBLE  Op = 0x53
	OpBGE  Op = 0x54
	OpBLT  Op = 0x55
	OpBHI  Op = 0x56 // unsigned >
	OpBLOS Op = 0x57 // unsigned <=
	OpBHIS Op = 0x58 // unsigned >=
	OpBLO  Op = 0x59 // unsigned <

	// Procedures. CALLS pushes the argument count, linkage and the
	// callee's masked registers; RET undoes all of it and pops the
	// arguments.
	OpCALLS Op = 0x60
	OpRET   Op = 0x61
)

// operand shapes for the decoder/assembler tables.
type operandKind uint8

const (
	opdNone  operandKind = iota
	opdRead              // general specifier, read
	opdWrite             // general specifier, write
	opdRW                // general specifier, read-modify-write
	opdAddr              // general specifier, address only (MOVAL, JMP)
	opdDisp              // 16-bit branch displacement
	opdCount             // 8-bit literal (CALLS argument count)
)

type opInfo struct {
	name     string
	operands []operandKind
	// base microcycle cost; each specifier adds its specCycles and each
	// data access accessCycles (cpu.go).
	base uint64
}

var opTable = map[Op]opInfo{
	OpHALT:   {"halt", nil, 2},
	OpMOVL:   {"movl", []operandKind{opdRead, opdWrite}, 2},
	OpMOVB:   {"movb", []operandKind{opdRead, opdWrite}, 2},
	OpCVTBL:  {"cvtbl", []operandKind{opdRead, opdWrite}, 3},
	OpMOVZBL: {"movzbl", []operandKind{opdRead, opdWrite}, 3},
	OpMOVAL:  {"moval", []operandKind{opdAddr, opdWrite}, 2},
	OpPUSHL:  {"pushl", []operandKind{opdRead}, 3},
	OpPOPL:   {"popl", []operandKind{opdWrite}, 3},
	OpCLRL:   {"clrl", []operandKind{opdWrite}, 2},
	OpADDL2:  {"addl2", []operandKind{opdRead, opdRW}, 2},
	OpADDL3:  {"addl3", []operandKind{opdRead, opdRead, opdWrite}, 2},
	OpSUBL2:  {"subl2", []operandKind{opdRead, opdRW}, 2},
	OpSUBL3:  {"subl3", []operandKind{opdRead, opdRead, opdWrite}, 2},
	OpMULL2:  {"mull2", []operandKind{opdRead, opdRW}, 16},
	OpMULL3:  {"mull3", []operandKind{opdRead, opdRead, opdWrite}, 16},
	OpDIVL2:  {"divl2", []operandKind{opdRead, opdRW}, 40},
	OpDIVL3:  {"divl3", []operandKind{opdRead, opdRead, opdWrite}, 40},
	OpANDL3:  {"andl3", []operandKind{opdRead, opdRead, opdWrite}, 2},
	OpORL3:   {"orl3", []operandKind{opdRead, opdRead, opdWrite}, 2},
	OpXORL3:  {"xorl3", []operandKind{opdRead, opdRead, opdWrite}, 2},
	OpASHL:   {"ashl", []operandKind{opdRead, opdRead, opdWrite}, 4},
	OpINCL:   {"incl", []operandKind{opdRW}, 2},
	OpDECL:   {"decl", []operandKind{opdRW}, 2},
	OpCMPL:   {"cmpl", []operandKind{opdRead, opdRead}, 2},
	OpCMPB:   {"cmpb", []operandKind{opdRead, opdRead}, 2},
	OpTSTL:   {"tstl", []operandKind{opdRead}, 2},
	OpBR:     {"br", []operandKind{opdDisp}, 3},
	OpJMP:    {"jmp", []operandKind{opdAddr}, 4},
	OpBEQ:    {"beq", []operandKind{opdDisp}, 3},
	OpBNE:    {"bne", []operandKind{opdDisp}, 3},
	OpBGT:    {"bgt", []operandKind{opdDisp}, 3},
	OpBLE:    {"ble", []operandKind{opdDisp}, 3},
	OpBGE:    {"bge", []operandKind{opdDisp}, 3},
	OpBLT:    {"blt", []operandKind{opdDisp}, 3},
	OpBHI:    {"bhi", []operandKind{opdDisp}, 3},
	OpBLOS:   {"blos", []operandKind{opdDisp}, 3},
	OpBHIS:   {"bhis", []operandKind{opdDisp}, 3},
	OpBLO:    {"blo", []operandKind{opdDisp}, 3},
	OpCALLS:  {"calls", []operandKind{opdCount, opdAddr}, 12},
	OpRET:    {"ret", nil, 12},
}

// opDense mirrors opTable as a dense array for the interpreter hot path;
// an empty name marks an undefined opcode.
var opDense = func() (t [256]opInfo) {
	for op, info := range opTable {
		t[op] = info
	}
	return
}()

// NumInstructions is the size of the CX instruction set.
func NumInstructions() int { return len(opTable) }

// Valid reports whether op is defined.
func (op Op) Valid() bool { return opDense[op].name != "" }

// Name returns the assembler mnemonic.
func (op Op) Name() string {
	if info, ok := opTable[op]; ok {
		return info.name
	}
	return fmt.Sprintf("op%#02x", uint8(op))
}

func (op Op) String() string { return op.Name() }

// ByName maps a mnemonic to its opcode.
func ByName(name string) (Op, bool) {
	op, ok := nameTable[name]
	return op, ok
}

var nameTable = func() map[string]Op {
	m := make(map[string]Op, len(opTable))
	for op, info := range opTable {
		m[info.name] = op
	}
	return m
}()

// Operand specifier modes. A specifier is one byte, mode in the high
// nibble and register in the low nibble, followed by the mode's extension
// bytes. This is the VAX scheme reduced to the modes our compiler emits.
type addrMode uint8

const (
	modeReg    addrMode = 0x0 // Rn            (1 byte)
	modeDeref  addrMode = 0x1 // (Rn)          (1 byte)
	modeDisp8  addrMode = 0x2 // d8(Rn)        (2 bytes)
	modeDisp32 addrMode = 0x3 // d32(Rn)       (5 bytes)
	modeImm8   addrMode = 0x4 // #imm8         (2 bytes, sign-extended)
	modeImm32  addrMode = 0x5 // #imm32        (5 bytes)
	modeAbs    addrMode = 0x6 // @addr         (5 bytes)
	modeIndex  addrMode = 0x7 // (Rn)[Rx]      (2 bytes; Rx scaled by 4)
	modeIndexB addrMode = 0x8 // b(Rn)[Rx]     byte-scaled index (2 bytes)
)

// specSize returns the encoded size of a specifier in bytes.
func specSize(mode addrMode) int {
	switch mode {
	case modeReg, modeDeref:
		return 1
	case modeDisp8, modeImm8, modeIndex, modeIndexB:
		return 2
	case modeDisp32, modeImm32, modeAbs:
		return 5
	}
	return 0
}

// specCycles is the microcode cost of evaluating a specifier (address
// formation only; data access cycles are added separately).
func specCycles(mode addrMode) uint64 {
	switch mode {
	case modeReg:
		return 0
	case modeDeref, modeImm8:
		return 1
	case modeDisp8:
		return 1
	case modeDisp32, modeImm32, modeAbs:
		return 2
	case modeIndex, modeIndexB:
		return 2
	}
	return 0
}
