// Package timing centralizes the clock models used by the evaluation: the
// clock periods that internal/machine converts cycle counts with, and the
// instruction and trap costs the machines charge.
//
// RISC I's published performance estimates assume a 400 ns processor cycle
// (the NMOS prototype's design target). The CISC comparator CX is modelled
// on a VAX-11/780-class machine: a 200 ns microcycle (5 MHz), with each
// instruction costing several microcycles of microcode plus memory time.
package timing

// Clock periods.
const (
	RiscCycleNS    = 400 // RISC I processor cycle (paper's design target)
	CXMicrocycleNS = 200 // CX microcycle, VAX-11/780-class (5 MHz)
)

// RISC I instruction costs in cycles. Register-register instructions take a
// single cycle; memory instructions add one cycle of memory access, which is
// the whole point of the load/store discipline.
const (
	RiscALUCycles      = 1
	RiscLoadCycles     = 2
	RiscStoreCycles    = 2
	RiscTransferCycles = 1 // delayed jumps/calls/returns
	RiscMiscCycles     = 1 // LDHI, GTLPC, GETPSW, PUTPSW
)

// Register-window trap costs: trap entry/exit plus 16 stores (spill) or 16
// loads (fill) of the window image at 2 cycles each, handled by a short
// software sequence.
const (
	RiscSpillCycles = 8 + 16*RiscStoreCycles // 40
	RiscFillCycles  = 8 + 16*RiscLoadCycles  // 40
	// RiscBatchSpillCycles is what each window a trap spills beyond the
	// first costs (core.Config.SpillBatch > 1): the stores alone, since
	// the trap entry and exit are already paid.
	RiscBatchSpillCycles = 16 * RiscStoreCycles // 32
)

// TrapCycles is the one price of register-window traps: overflows and
// underflows cost a trap each, and each window an overflow trap spills
// beyond the first costs its stores. The core charges it, the pipeline
// stalls for it, and the accounting check and E6 add it up.
func TrapCycles(overflows, underflows, batchSpills uint64) uint64 {
	return overflows*RiscSpillCycles + underflows*RiscFillCycles + batchSpills*RiscBatchSpillCycles
}
