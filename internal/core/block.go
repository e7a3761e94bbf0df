// Basic-block superinstruction engine. Straight-line runs of predecoded
// instructions — up to and including a delayed transfer plus its delay
// slot — are compiled once into a flat list of specialized closures, one
// per instruction. Calling a closure is the one indirect call its
// instruction costs: it reads its operands and computes its address,
// result and flags in its own body or through direct calls (a jump's
// condition is the one further indirect call, through condPred). The
// fixed per-instruction accounting (cycle cost, instruction count) is
// charged in one batched update per block; a full run's opcode mix is one
// more run of the block, which Stats multiplies out (countRuns).
// Everything observable must match Step exactly: faults unwind the
// accounting of the instructions that never ran and restore the precise
// PC pair, MaxCycles refuses at the same instruction boundary, and a store
// into the executing block stops it at the store (the self-modifying-code
// contract of the predecode cache).
package core

import (
	"risc1/internal/cfg"
	"risc1/internal/isa"
	"risc1/internal/timing"
)

// blockOp is one compiled body instruction; op i of a block is its
// instruction i.
type blockOp struct {
	fn func(c *CPU) error
	// store marks an op that may write memory; after it runs, the engine
	// re-checks that the store did not invalidate this very block.
	store bool
}

// instCost is the fixed accounting of one block instruction, kept
// per-instruction so faults can unwind the unexecuted suffix.
type instCost struct {
	op     uint8
	cycles uint8
}

// opCount aggregates the block's opcode mix for the batched charge.
type opCount struct {
	op uint8
	n  uint32
}

// block is one compiled basic block.
type block struct {
	startPC uint32
	nInst   int // instructions covered (== code words covered)

	// ops is the body: every instruction before the terminator, except a
	// compare that fuseCmpBranch folded into termFast.
	ops []blockOp

	term     bool     // block ends with a delayed transfer + slot
	termIdx  int      // block-relative index of the transfer (slot is termIdx+1)
	termInst isa.Inst // the transfer, copied out of the predecode cache
	// termFast is the specialized dispatch for JMP/JMPR terminators: they
	// cannot fault, cannot halt, and add no dynamic cycles, so the slot
	// may run without the halt and budget re-checks the generic path
	// (CALL/RET through control) needs. When the final body instruction is
	// a flag-setting SUB feeding a JMPR it is fused in (fuseCmpBranch).
	termFast func(c *CPU) (target uint32, taken bool)
	// slotFn is nil when the slot is an effect-free nop (ALU into r0
	// without SCC): r0 is hard-wired, so there is nothing to execute.
	slotFn  func(c *CPU) error
	slotNop bool

	fixedCycles uint64 // batched per-category cost of every instruction
	// cyclesButLast is fixedCycles minus the final instruction's cost: the
	// block may start iff Cycles+cyclesButLast < MaxCycles, because fixed
	// costs are monotone so only the last instruction's start can trip the
	// budget first. (Dynamic spill/fill cycles at the transfer get their
	// own re-check before the slot.)
	cyclesButLast uint64
	counts        []opCount
	costs         []instCost
}

// noBlock is the cached "this word cannot start a block" answer, so
// unblockable leaders are not re-scanned on every visit.
var noBlock = &block{}

// blockable reports whether in may occupy a block body or delay slot:
// instructions with a fixed cycle cost whose semantics do not depend on
// state the engine updates only at block boundaries. GTLPC reads lastPC
// (stale mid-block) and PUTPSW flips the interrupt-enable bit, so both —
// and every control transfer — stay on the single-step path.
func blockable(in isa.Inst) bool {
	switch in.Op.Cat() {
	case isa.CatALU, isa.CatLoad, isa.CatStore:
		return true
	case isa.CatMisc:
		return in.Op == isa.OpLDHI || in.Op == isa.OpGETPSW
	}
	return false
}

// categoryCycles is the fixed per-category cost execute charges.
func categoryCycles(cat isa.Category) uint8 {
	switch cat {
	case isa.CatLoad:
		return timing.RiscLoadCycles
	case isa.CatStore:
		return timing.RiscStoreCycles
	case isa.CatControl:
		return timing.RiscTransferCycles
	case isa.CatALU:
		return timing.RiscALUCycles
	default:
		return timing.RiscMiscCycles
	}
}

// nextBlock resolves the block for the current machine state, or nil when
// the state requires single-stepping: mid-delay-slot, an interrupt
// pending, the PC outside the predecoded range, or MaxCycles close enough
// that the run could overrun it. It also returns how many instructions k
// of the block to run. That is the whole block when it fits the budget
// (what is left of the batch or quantum). When it does not, it is a
// prefix: the leading body ops that fit, never the terminator, its fused
// compare or the slot.
func (c *CPU) nextBlock(budget int) (b *block, w uint32, k int) {
	if c.inDelay || len(c.pendIRQ) > 0 {
		return nil, 0, 0
	}
	off := c.pc - c.codeOrg
	if off&3 != 0 || off>>2 >= uint32(len(c.predec)) {
		return nil, 0, 0
	}
	w = off >> 2
	b = c.blockAt(w)
	if b.nInst == 0 {
		return nil, 0, 0
	}
	if b.nInst <= budget {
		if c.stat.Cycles+b.cyclesButLast >= c.cfg.MaxCycles {
			return nil, 0, 0
		}
		return b, w, b.nInst
	}
	k = min(budget, len(b.ops))
	if k == 0 {
		return nil, 0, 0
	}
	// The same start rule as a whole block's: only the last instruction's
	// start can trip the budget first.
	cycles := c.stat.Cycles
	for _, ic := range b.costs[:k-1] {
		cycles += uint64(ic.cycles)
	}
	if cycles >= c.cfg.MaxCycles {
		return nil, 0, 0
	}
	return b, w, k
}

// blockAt returns the compiled block leading at word w, compiling it on
// first use.
func (c *CPU) blockAt(w uint32) *block {
	if b := c.blocks[w]; b != nil {
		return b
	}
	b := c.compileBlock(int(w))
	c.blocks[w] = b
	return b
}

// compileBlock builds the block starting at word index start, or noBlock
// if no blockable span begins there.
func (c *CPU) compileBlock(start int) *block {
	p := cfg.New(c.codeOrg, c.predec, c.predecOK)
	span := p.BlockSpan(start, maxBlock, blockable)
	n := span.Words()
	if n == 0 {
		return noBlock
	}
	b := &block{
		startPC: c.codeOrg + uint32(4*start),
		nInst:   n,
		term:    span.Term,
		termIdx: span.Body,
	}

	b.costs = make([]instCost, n)
	var agg [128]uint32
	for j := 0; j < n; j++ {
		in := &c.predec[start+j]
		cyc := categoryCycles(in.Op.Cat())
		b.costs[j] = instCost{op: uint8(in.Op) & 0x7F, cycles: cyc}
		b.fixedCycles += uint64(cyc)
		agg[uint8(in.Op)&0x7F]++
	}
	b.cyclesButLast = b.fixedCycles - uint64(b.costs[n-1].cycles)
	for opv, cnt := range agg {
		if cnt > 0 {
			b.counts = append(b.counts, opCount{op: uint8(opv), n: cnt})
		}
	}

	nBody := span.Body
	if span.Term {
		b.termInst = c.predec[start+span.Body]
		termPC := b.blockPC(span.Body)
		b.termFast = compileJump(&b.termInst, termPC)
		slot := &c.predec[start+span.Body+1]
		b.slotNop = isNop(slot)
		if !b.slotNop {
			// An effect-free nop slot (ALU into the hard-wired r0, no SCC)
			// compiles to nothing; anything else executes.
			b.slotFn = compileStraight(slot)
		}
		// Compare-and-branch fusion: a flag-setting SUB feeding a JMPR
		// collapses into a single dispatch that computes the flags and the
		// branch decision together.
		if nBody > 0 {
			if fused := fuseCmpBranch(&c.predec[start+nBody-1], &b.termInst, termPC); fused != nil {
				b.termFast = fused
				nBody--
			}
		}
	}

	b.ops = make([]blockOp, nBody)
	for j := range b.ops {
		in := &c.predec[start+j]
		b.ops[j] = blockOp{fn: compileStraight(in), store: in.Op.Cat() == isa.CatStore}
	}
	return b
}

// blockPC is the address of the block-relative instruction idx.
func (b *block) blockPC(idx int) uint32 { return b.startPC + uint32(4*idx) }

// runBlock executes the first k instructions of b: the whole block
// (k == b.nInst) or a prefix of its body ops (see nextBlock). It charges
// all k instructions up front and unwinds those an early exit kept from
// running; every exit reports what retired to the Retire hook.
// Preconditions (nextBlock): not halted, not in a delay slot,
// no interrupt pending, pc == b.startPC, and the run's instructions but
// the last fit under MaxCycles.
func (c *CPU) runBlock(w uint32, b *block, k int) error {
	// Batched accounting: charge the whole run up front. Every early exit
	// below unwinds the instructions that did not run.
	c.stat.Instructions += uint64(k)
	if k == b.nInst {
		c.stat.Cycles += b.fixedCycles
		c.countRuns(w, b, 1)
	} else {
		for _, ic := range b.costs[:k] {
			c.stat.Cycles += uint64(ic.cycles)
			c.opCounts[ic.op]++
		}
	}

	for i := range b.ops[:min(k, len(b.ops))] {
		op := &b.ops[i]
		if err := op.fn(c); err != nil {
			err = c.blockFault(b, i, k, err)
			c.retired(w, i, false)
			return err
		}
		if op.store && c.blocks[w] != b {
			// The store rewrote part of this very block (self-modifying
			// code). Stop after the store — exactly where the predecode
			// cache's step path would pick up the fresh bytes.
			next := i + 1
			c.unwindBlock(b, next, k)
			c.lastPC = b.blockPC(i)
			c.pc = b.blockPC(next)
			c.npc = c.pc + 4
			c.retired(w, next, false)
			return nil
		}
	}

	if k < b.nInst || !b.term {
		// Ran a prefix, or fell off the straight-line end: the next word
		// starts a fresh block or single-steps.
		end := b.blockPC(k)
		c.lastPC = end - 4
		c.pc = end
		c.npc = end + 4
		c.retired(w, k, false)
		return nil
	}

	termPC := b.blockPC(b.termIdx)
	slotPC := termPC + 4
	if b.termFast != nil {
		// JMP/JMPR: no fault, no halt, no dynamic cycles — the slot runs
		// unconditionally and the delay-slot state nets out to false.
		target, taken := b.termFast(c)
		c.lastPC = termPC
		if taken {
			c.npc = target
			c.stat.TakenTransfers++
		} else {
			c.npc = slotPC + 4
		}
		c.stat.Transfers++
		if b.slotNop {
			c.stat.DelaySlotNops++
		} else {
			c.stat.DelaySlotUseful++
			if err := b.slotFn(c); err != nil {
				c.pc = slotPC
				err = c.runError(slotPC, err)
				c.retired(w, b.termIdx+1, taken)
				return err
			}
		}
		c.lastPC = slotPC
		c.pc = c.npc
		c.npc = c.pc + 4
		c.retired(w, b.nInst, taken)
		return nil
	}
	target, transferred, err := c.control(&b.termInst, termPC)
	if err != nil {
		// The transfer faulted in the window machinery; it stays charged
		// (Step charges before executing), the slot never ran.
		c.unwindBlock(b, b.termIdx+1, b.nInst)
		if b.termIdx > 0 {
			c.lastPC = termPC - 4
		}
		c.pc = termPC
		c.npc = termPC + 4
		err = c.runError(termPC, err)
		c.retired(w, b.termIdx, false)
		return err
	}
	c.lastPC = termPC
	c.pc = slotPC
	if transferred {
		c.npc = target
		c.stat.TakenTransfers++
	} else {
		c.npc = slotPC + 4
	}
	// Every terminator is a delayed transfer: taken or not, it owns the
	// slot.
	c.stat.Transfers++
	c.inDelay = true
	if c.halted {
		// RET to HaltAddr halts during the transfer itself; the slot never
		// executes.
		c.unwindBlock(b, b.termIdx+1, b.nInst)
		c.retired(w, b.termIdx+1, false)
		return nil
	}
	// The transfer may have accrued dynamic spill/fill cycles; re-check the
	// budget exactly where Step would, at the slot boundary.
	if c.stat.Cycles-uint64(b.costs[b.termIdx+1].cycles) >= c.cfg.MaxCycles {
		c.unwindBlock(b, b.termIdx+1, b.nInst)
		err := c.runError(c.pc, ErrMaxCycles)
		c.retired(w, b.termIdx+1, transferred)
		return err
	}
	c.inDelay = false
	if b.slotNop {
		c.stat.DelaySlotNops++
	} else {
		c.stat.DelaySlotUseful++
	}
	if b.slotFn != nil {
		if err := b.slotFn(c); err != nil {
			err = c.runError(slotPC, err)
			c.retired(w, b.termIdx+1, transferred)
			return err
		}
	}
	c.lastPC = slotPC
	c.pc = c.npc
	c.npc = c.pc + 4
	c.retired(w, b.nInst, transferred)
	return nil
}

// blockRuns counts one core's full runs of the block leading at a word
// whose opcode mix is not yet in opCounts. Each core keeps its own, since
// opcode mixes are per core and blocks are shared.
type blockRuns struct {
	b *block
	n uint64
}

// countRuns records n full runs of b, which leads at word w. Their mix is
// multiplied into opCounts only when Stats reads it, or when w's slot
// meets a different block because the old one was invalidated.
func (c *CPU) countRuns(w uint32, b *block, n uint64) {
	r := &c.runs[w]
	if r.b != b {
		c.foldRuns(r)
		r.b = b
	}
	r.n += n
}

// foldRuns adds r's pending runs to opCounts.
func (c *CPU) foldRuns(r *blockRuns) {
	if r.n == 0 {
		return
	}
	for _, oc := range r.b.counts {
		c.opCounts[oc.op] += r.n * uint64(oc.n)
	}
	r.n = 0
}

// retired reports the first k instructions of the block leading at word w
// to the Retire hook, if one is installed. It is small enough to inline,
// so a run without the hook pays one nil check per block.
func (c *CPU) retired(w uint32, k int, taken bool) {
	if c.Retire != nil {
		c.reportRun(w, k, taken)
	}
}

func (c *CPU) reportRun(w uint32, k int, taken bool) {
	if k > 0 {
		c.Retire(c.codeOrg+4*w, c.predec[w:int(w)+k], taken)
	}
}

// blockFault unwinds a body fault at block-relative instruction fidx of a
// run charged through instruction end-1 and restores the machine state
// Step would show: the faulting instruction is current (and stays
// charged), nothing after it happened.
func (c *CPU) blockFault(b *block, fidx, end int, err error) error {
	c.unwindBlock(b, fidx+1, end)
	fpc := b.blockPC(fidx)
	if fidx > 0 {
		c.lastPC = fpc - 4
	}
	c.pc = fpc
	c.npc = fpc + 4
	return c.runError(fpc, err)
}

// unwindBlock removes the batched accounting of instructions [from, end)
// that a fault, a halt, or an invalidation bail-out kept from executing.
func (c *CPU) unwindBlock(b *block, from, end int) {
	for _, ic := range b.costs[from:end] {
		c.stat.Instructions--
		c.stat.Cycles -= uint64(ic.cycles)
		c.opCounts[ic.op]--
	}
}

// condPred specializes a jump condition into a direct predicate, saving
// the 16-way Holds dispatch on every executed branch.
func condPred(cond isa.Cond) func(isa.Flags) bool {
	switch cond {
	case isa.CondNEV:
		return func(isa.Flags) bool { return false }
	case isa.CondALW:
		return func(isa.Flags) bool { return true }
	case isa.CondEQ:
		return func(f isa.Flags) bool { return f.Z }
	case isa.CondNE:
		return func(f isa.Flags) bool { return !f.Z }
	case isa.CondGT:
		return func(f isa.Flags) bool { return !f.Z && f.N == f.V }
	case isa.CondLE:
		return func(f isa.Flags) bool { return f.Z || f.N != f.V }
	case isa.CondGE:
		return func(f isa.Flags) bool { return f.N == f.V }
	case isa.CondLT:
		return func(f isa.Flags) bool { return f.N != f.V }
	case isa.CondHI:
		return func(f isa.Flags) bool { return f.C && !f.Z }
	case isa.CondLOS:
		return func(f isa.Flags) bool { return !f.C || f.Z }
	case isa.CondLO:
		return func(f isa.Flags) bool { return !f.C }
	case isa.CondHIS:
		return func(f isa.Flags) bool { return f.C }
	case isa.CondPL:
		return func(f isa.Flags) bool { return !f.N }
	case isa.CondMI:
		return func(f isa.Flags) bool { return f.N }
	case isa.CondNV:
		return func(f isa.Flags) bool { return !f.V }
	default: // isa.CondV
		return func(f isa.Flags) bool { return f.V }
	}
}

// fuseCmpBranch fuses the hottest terminator pair — a flag-setting SUB
// (cmp) immediately before a JMPR — into one closure computing the
// subtraction, the flag update and the branch decision on locals. Returns
// nil when the pair does not match.
func fuseCmpBranch(cmp *isa.Inst, jin *isa.Inst, jmpPC uint32) func(*CPU) (uint32, bool) {
	if cmp.Op != isa.OpSUB || !cmp.SCC || jin.Op != isa.OpJMPR {
		return nil
	}
	pred := condPred(jin.Cond())
	tgt := jmpPC + uint32(jin.Imm19)
	rd, rs1, rs2 := cmp.Rd, cmp.Rs1, cmp.Rs2
	if cmp.Imm {
		y := uint32(cmp.Imm13)
		return func(c *CPU) (uint32, bool) {
			x := c.Regs.Get(rs1)
			r := x - y
			c.Regs.Set(rd, r)
			f := subFlags(x, y, r)
			c.flags = f
			return tgt, pred(f)
		}
	}
	return func(c *CPU) (uint32, bool) {
		x, y := c.Regs.Get(rs1), c.Regs.Get(rs2)
		r := x - y
		c.Regs.Set(rd, r)
		f := subFlags(x, y, r)
		c.flags = f
		return tgt, pred(f)
	}
}

// compileJump specializes a JMP/JMPR terminator, or returns nil for the
// transfers that must go through control (calls and returns: window
// machinery, halt detection, dynamic cycles). The target is meaningful only
// when the branch is taken.
func compileJump(in *isa.Inst, pc uint32) func(*CPU) (uint32, bool) {
	pred := condPred(in.Cond())
	switch in.Op {
	case isa.OpJMPR:
		tgt := pc + uint32(in.Imm19)
		return func(c *CPU) (uint32, bool) { return tgt, pred(c.flags) }
	case isa.OpJMP:
		rs1 := in.Rs1
		if in.Imm {
			d := uint32(in.Imm13)
			return func(c *CPU) (uint32, bool) { return c.Regs.Get(rs1) + d, pred(c.flags) }
		}
		rs2 := in.Rs2
		return func(c *CPU) (uint32, bool) { return c.Regs.Get(rs1) + c.Regs.Get(rs2), pred(c.flags) }
	}
	return nil
}

// compileStraight specializes one blockable instruction into a closure that
// makes no further indirect call.
func compileStraight(in *isa.Inst) func(*CPU) error {
	switch in.Op.Cat() {
	case isa.CatALU:
		return compileALU(in)
	case isa.CatLoad:
		return compileLoad(in)
	case isa.CatStore:
		return compileStore(in)
	default: // LDHI, GETPSW — the blockable CatMisc subset
		return compileMisc(in)
	}
}

// subFlags is the flag update of r = x - y with no borrow in; carry means
// no borrow.
func subFlags(x, y, r uint32) isa.Flags {
	return isa.Flags{C: x >= y, V: (x^y)&(x^r)&0x80000000 != 0, Z: r == 0, N: int32(r) < 0}
}

// b2 is a compiled ALU op's second operand: its immediate, or rs2.
func (c *CPU) b2(useImm bool, imm uint32, rs2 uint8) uint32 {
	if useImm {
		return imm
	}
	return c.Regs.Get(rs2)
}

func compileALU(in *isa.Inst) func(*CPU) error {
	op, rd, rs1, rs2, scc := in.Op, in.Rd, in.Rs1, in.Rs2, in.SCC
	imm, useImm := uint32(in.Imm13), in.Imm

	// The ops the compiler emits get a closure each: ADD, SUB and the
	// logical and shift group without SCC, and the compare (SUB with SCC)
	// that feeds every conditional branch.
	if !scc {
		switch op {
		case isa.OpADD:
			return func(c *CPU) error { c.Regs.Set(rd, c.Regs.Get(rs1)+c.b2(useImm, imm, rs2)); return nil }
		case isa.OpSUB:
			return func(c *CPU) error { c.Regs.Set(rd, c.Regs.Get(rs1)-c.b2(useImm, imm, rs2)); return nil }
		case isa.OpAND:
			return func(c *CPU) error { c.Regs.Set(rd, c.Regs.Get(rs1)&c.b2(useImm, imm, rs2)); return nil }
		case isa.OpOR:
			return func(c *CPU) error { c.Regs.Set(rd, c.Regs.Get(rs1)|c.b2(useImm, imm, rs2)); return nil }
		case isa.OpXOR:
			return func(c *CPU) error { c.Regs.Set(rd, c.Regs.Get(rs1)^c.b2(useImm, imm, rs2)); return nil }
		case isa.OpSLL:
			return func(c *CPU) error { c.Regs.Set(rd, c.Regs.Get(rs1)<<(c.b2(useImm, imm, rs2)&31)); return nil }
		case isa.OpSRL:
			return func(c *CPU) error { c.Regs.Set(rd, c.Regs.Get(rs1)>>(c.b2(useImm, imm, rs2)&31)); return nil }
		case isa.OpSRA:
			return func(c *CPU) error {
				c.Regs.Set(rd, uint32(int32(c.Regs.Get(rs1))>>(c.b2(useImm, imm, rs2)&31)))
				return nil
			}
		}
	} else if op == isa.OpSUB {
		return func(c *CPU) error {
			x, y := c.Regs.Get(rs1), c.b2(useImm, imm, rs2)
			r := x - y
			c.Regs.Set(rd, r)
			c.flags = subFlags(x, y, r)
			return nil
		}
	}

	// The carry and reverse subtracts, ADDC, and ADD and the logical and
	// shift group with SCC, which the compiler does not emit: one closure
	// evaluating the op the way execute does.
	return func(c *CPU) error {
		a, b := c.Regs.Get(rs1), c.b2(useImm, imm, rs2)
		var r uint32
		var f isa.Flags // the logical and shift group clears C and V
		switch op {
		case isa.OpADD, isa.OpADDC:
			var carry uint64
			if op == isa.OpADDC && c.flags.C {
				carry = 1
			}
			full := uint64(a) + uint64(b) + carry
			r = uint32(full)
			f.C = full > 0xFFFFFFFF
			f.V = (a^b)&0x80000000 == 0 && (a^r)&0x80000000 != 0
		case isa.OpSUB, isa.OpSUBC, isa.OpSUBR, isa.OpSUBCR:
			if op == isa.OpSUBR || op == isa.OpSUBCR {
				a, b = b, a
			}
			var borrow uint64
			if (op == isa.OpSUBC || op == isa.OpSUBCR) && !c.flags.C {
				borrow = 1
			}
			full := uint64(a) - uint64(b) - borrow
			r = uint32(full)
			f.C = full <= 0xFFFFFFFF // carry = no borrow
			f.V = (a^b)&(a^r)&0x80000000 != 0
		case isa.OpAND:
			r = a & b
		case isa.OpOR:
			r = a | b
		case isa.OpXOR:
			r = a ^ b
		case isa.OpSLL:
			r = a << (b & 31)
		case isa.OpSRL:
			r = a >> (b & 31)
		default: // OpSRA
			r = uint32(int32(a) >> (b & 31))
		}
		c.Regs.Set(rd, r)
		if scc {
			f.Z, f.N = r == 0, int32(r) < 0
			c.flags = f
		}
		return nil
	}
}

// loaded finishes a load: on success it writes v to rd and, under SCC, sets
// Z and N from it and clears C and V.
func (c *CPU) loaded(rd uint8, v uint32, scc bool, err error) error {
	if err != nil {
		return err
	}
	c.Regs.Set(rd, v)
	if scc {
		c.flags = isa.Flags{Z: v == 0, N: int32(v) < 0}
	}
	return nil
}

// compileLoad gives the loads the compiler emits, the immediate forms of
// LDL and LDBU, a closure each. The other forms share one closure that
// runs Step's load.
func compileLoad(in *isa.Inst) func(*CPU) error {
	rd, rs1, scc, d := in.Rd, in.Rs1, in.SCC, uint32(in.Imm13)
	switch {
	case in.Imm && in.Op == isa.OpLDL:
		return func(c *CPU) error {
			v, err := c.Mem.Load32(c.Regs.Get(rs1) + d)
			return c.loaded(rd, v, scc, err)
		}
	case in.Imm && in.Op == isa.OpLDBU:
		return func(c *CPU) error {
			b, err := c.Mem.Load8(c.Regs.Get(rs1) + d)
			return c.loaded(rd, uint32(b), scc, err)
		}
	}
	i := *in
	return func(c *CPU) error { return c.load(&i) }
}

// compileStore is compileLoad's counterpart: a closure each for the
// immediate forms of STL and STB, and Step's store for the rest.
func compileStore(in *isa.Inst) func(*CPU) error {
	rd, rs1, d := in.Rd, in.Rs1, uint32(in.Imm13)
	switch {
	case in.Imm && in.Op == isa.OpSTL:
		return func(c *CPU) error { return c.Mem.Store32(c.Regs.Get(rs1)+d, c.Regs.Get(rd)) }
	case in.Imm && in.Op == isa.OpSTB:
		return func(c *CPU) error { return c.Mem.Store8(c.Regs.Get(rs1)+d, uint8(c.Regs.Get(rd))) }
	}
	i := *in
	return func(c *CPU) error { return c.store(&i) }
}

func compileMisc(in *isa.Inst) func(*CPU) error {
	rd := in.Rd
	if in.Op == isa.OpLDHI {
		v := uint32(in.Imm19&0x7FFFF) << 13
		return func(c *CPU) error { c.Regs.Set(rd, v); return nil }
	}
	// GETPSW: ie and CWP are exact mid-block — nothing in a block body
	// changes either.
	return func(c *CPU) error {
		var v uint32
		if c.flags.C {
			v |= pswC
		}
		if c.flags.V {
			v |= pswV
		}
		if c.flags.N {
			v |= pswN
		}
		if c.flags.Z {
			v |= pswZ
		}
		if c.ie {
			v |= pswIE
		}
		v |= uint32(c.Regs.CWP()&0xFF) << 16
		c.Regs.Set(rd, v)
		return nil
	}
}
