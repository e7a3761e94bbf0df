package cisc

// Basic-block tier.
//
// A block is the straight run of recorded predecode entries from a leader
// up to and including the first control transfer (or maxBlock entries, or
// the first offset with no live entry). It compiles to one closure per
// instruction, specialized by opcode and operand kind; shapes without a
// specialization call exec. Blocks are built only from entries that
// already ran, so nothing is decoded ahead and fetch faults and poisoned
// code keep their Step semantics.
//
// The fixed accounting of a block is batched: its instructions and their
// base and specifier microcycles are charged once when it starts, and its
// opcode mix and FetchBytes are counted as one more run of the block,
// which Stats multiplies out. Dynamic microcycles (accessCycles per data
// access, one more for a taken branch) are charged as they happen.
// Whatever ends a block early gives back the fixed charges of the
// instructions that did not run, so Stats and RunError read exactly as
// under Step:
//   - a fault raises the RunError Step would, at the faulting PC;
//   - a store that drops the running block (it rewrote one of its
//     instructions) stops the block right after the store.
//
// RunContext runs a block no further than the rest of the run batch, so
// context checks and Progress land on the same instruction counts, and
// starts it only if no instruction of it but the last could start at or
// past MaxCycles, so the budget is refused where Step would refuse it.

// blockOp is one compiled instruction of a block with its fixed charges.
type blockOp struct {
	fn     func(c *CPU) error
	pc     uint32
	op     Op
	size   uint8
	cycles uint8
	store  bool // may write memory; the block re-checks itself after it
}

// opCount is one line of a block's opcode mix.
type opCount struct {
	op Op
	n  uint32
}

// block is one compiled basic block.
type block struct {
	off    uint32 // code offset of the leader; blocks[off] points back here
	ops    []blockOp
	cycles uint64 // Σ fixed microcycles
	bytes  uint64 // Σ instruction sizes
	counts []opCount
	// runs counts the starts whose opcode mix and FetchBytes have not yet
	// been added to the CPU's counters (see flushBlock).
	runs uint64
	// bound is an upper bound on the microcycles charged before the last
	// instruction starts: the block may start iff cycles+bound < MaxCycles.
	bound uint64
	end   uint32 // PC after the last instruction
	// open marks a block cut short at an offset with no live entry; it is
	// rebuilt once an entry is recorded at endOff.
	open   bool
	endOff uint32
}

// isTransfer reports whether op ends a block: every opcode that may move
// the cursor or halt.
func isTransfer(op Op) bool {
	return op == OpHALT || op == OpJMP || op == OpCALLS || op == OpRET || isBranch(op)
}

// isBranch reports whether op is BR or a Bcc.
func isBranch(op Op) bool { return op == OpBR || op >= OpBEQ && op <= OpBLO }

// nextBlock returns the block leading at pc if it may start, or nil to
// single-step.
func (c *CPU) nextBlock() *block {
	off := c.pc - c.codeOrg
	if off >= uint32(len(c.blocks)) {
		return nil
	}
	b := c.blocks[off]
	if b == nil || b.open && c.index[b.endOff] > 0 {
		if c.index[off] <= 0 {
			return nil
		}
		if b != nil {
			c.flushBlock(b)
		}
		b = c.compileBlock(off)
		c.blocks[off] = b
	}
	if c.cycles+b.bound >= c.cfg.MaxCycles {
		return nil
	}
	return b
}

// compileBlock builds the block whose leader is the live entry at code
// offset off.
func (c *CPU) compileBlock(off uint32) *block {
	b := &block{off: off}
	var mix [256]uint32
	var prev uint64 // what the last instruction so far may charge
	pc := c.codeOrg + off
	for len(b.ops) < maxBlock {
		o := pc - c.codeOrg
		if o >= uint32(len(c.index)) {
			break
		}
		v := c.index[o]
		if v <= 0 {
			b.open, b.endOff = true, o
			break
		}
		e := &c.insts[v-1]
		// Only a non-transfer can precede e, and it charges no dynamic
		// microcycles but its data accesses.
		b.bound += prev
		prev = uint64(e.cycles) + accessCycles*maxAccesses(e)
		fn, store := compileInst(e, pc)
		b.ops = append(b.ops, blockOp{fn: fn, pc: pc, op: e.op, size: e.size, cycles: e.cycles, store: store})
		b.cycles += uint64(e.cycles)
		b.bytes += uint64(e.size)
		mix[e.op]++
		pc += uint32(e.size)
		if isTransfer(e.op) {
			break
		}
	}
	b.end = pc
	// Only a store before the last instruction can cut the block short.
	b.ops[len(b.ops)-1].store = false
	for op, n := range mix {
		if n > 0 {
			b.counts = append(b.counts, opCount{Op(op), n})
		}
	}
	if span := b.ops[len(b.ops)-1].pc - b.ops[0].pc; span > c.blockSpan {
		c.blockSpan = span
	}
	return b
}

// maxAccesses bounds the data accesses a non-transfer instruction makes:
// one per read or written general operand that is not a register (an
// immediate destination stores to address 0), two for read-modify-write,
// plus the stack access of PUSHL and POPL.
func maxAccesses(e *inst) uint64 {
	var n uint64
	for i, kind := range opDense[e.op].operands {
		if e.spec[i].kind == kReg {
			continue
		}
		switch kind {
		case opdRead, opdWrite:
			n++
		case opdRW:
			n += 2
		}
	}
	if e.op == OpPUSHL || e.op == OpPOPL {
		n++
	}
	return n
}

// runBlocks runs compiled blocks from pc, one after another, until left
// instructions have retired or the next block may not start; a block longer
// than what is left of the batch runs only that far. It returns how many
// instructions it retired; the caller single-steps the instruction at which
// it stopped.
func (c *CPU) runBlocks(left int) (int, error) {
	done := 0
	for done < left && !c.halted {
		b := c.nextBlock()
		if b == nil {
			break
		}
		c.instructions += uint64(len(b.ops))
		c.cycles += b.cycles
		b.runs++
		c.cursor = b.end
		ops := b.ops
		if len(ops) > left-done {
			ops = ops[:left-done]
		}
		for i := range ops {
			op := &ops[i]
			if err := op.fn(c); err != nil {
				c.unwindBlock(b, i+1)
				c.pc = op.pc
				return done + i + 1, c.runError(op.pc, err)
			}
			if op.store && c.blocks[b.off] != b {
				// The store rewrote an instruction of this block: stop
				// after it, where Step picks up the fresh bytes.
				c.unwindBlock(b, i+1)
				c.pc = b.ops[i+1].pc
				return done + i + 1, nil
			}
		}
		done += len(ops)
		if len(ops) < len(b.ops) {
			c.unwindBlock(b, len(ops))
			c.pc = b.ops[len(ops)].pc
			break
		}
		if c.halted {
			c.pc = ops[len(ops)-1].pc
			break
		}
		c.pc = c.cursor
	}
	return done, nil
}

// unwindBlock gives back the fixed charges of b's instructions from on.
func (c *CPU) unwindBlock(b *block, from int) {
	for _, op := range b.ops[from:] {
		c.instructions--
		c.cycles -= uint64(op.cycles)
		c.fetchBytes -= uint64(op.size)
		c.opCounts[op.op]--
	}
}

// flushBlock adds the opcode mix and FetchBytes of b's runs so far to the
// CPU's counters. Stats flushes every live block, and a block is flushed
// before it is dropped.
func (c *CPU) flushBlock(b *block) {
	for _, oc := range b.counts {
		c.opCounts[oc.op] += b.runs * uint64(oc.n)
	}
	c.fetchBytes += b.runs * b.bytes
	b.runs = 0
}

// dropBlocks drops every block holding an entry that starts in code
// offsets [lo, hi): invalidateCode is about to invalidate those entries.
func (c *CPU) dropBlocks(lo, hi uint32) {
	from := uint32(0)
	if lo > c.blockSpan {
		from = lo - c.blockSpan
	}
	for i := from; i < hi; i++ {
		if b := c.blocks[i]; b != nil && b.ops[len(b.ops)-1].pc-c.codeOrg >= lo {
			c.flushBlock(b)
			c.blocks[i] = nil
		}
	}
}

// regImm evaluates a register or immediate specifier as regs[r]+k: an
// immediate reads the always-zero register.
func regImm(s *opnd) (r uint8, k uint32, ok bool) {
	switch s.kind {
	case kReg:
		return s.reg, 0, true
	case kImm:
		return zeroReg, s.ext, true
	}
	return 0, 0, false
}

// take moves the cursor to a taken branch's target and refills the
// microsequencer.
func (c *CPU) take(target uint32) {
	c.cursor = target
	c.cycles++
}

// compileInst compiles the recorded entry e at pc into a closure that does
// what exec does for it, and reports whether it may store to memory.
// Register and immediate shapes of the common opcodes are specialized;
// memory operands go through the same read/write helpers exec uses, so
// faults charge and unwind alike.
func compileInst(e *inst, pc uint32) (func(*CPU) error, bool) {
	s0, s1, s2 := e.spec[0], e.spec[1], e.spec[2]
	a, ka, aRI := regImm(&s0)
	b, kb, bRI := regImm(&s1)
	d := s1.reg & 15
	switch e.op {
	case OpADDL3, OpSUBL3, OpANDL3, OpORL3, OpXORL3, OpASHL:
		if aRI && bRI && s2.kind == kReg {
			return compileALU3(e.op, a&15, ka, b&15, kb, s2.reg&15), false
		}
	case OpMOVL:
		switch {
		case aRI && s1.kind == kReg:
			return func(c *CPU) error {
				v := c.regs[a&15] + ka
				c.setNZ(v)
				c.regs[d] = v
				return nil
			}, false
		case s0.kind == kMem && s1.kind == kReg:
			return func(c *CPU) error {
				v, err := c.read32(&s0)
				if err != nil {
					return err
				}
				c.setNZ(v)
				c.regs[d] = v
				return nil
			}, false
		case aRI && s1.kind == kMem:
			return func(c *CPU) error {
				v := c.regs[a&15] + ka
				c.setNZ(v)
				return c.dataWrite32(c.addr(&s1), v)
			}, true
		}
	case OpMOVAL:
		if s0.kind == kMem && s1.kind == kReg {
			base, idx, shift, ext := s0.reg&15, s0.idx&15, s0.shift, s0.ext
			return func(c *CPU) error {
				c.regs[d] = c.regs[base] + ext + c.regs[idx]<<shift
				return nil
			}, false
		}
	case OpMOVB:
		if aRI && s1.kind == kMem {
			return func(c *CPU) error {
				v := uint8(c.regs[a&15] + ka)
				c.setNZ(uint32(v))
				return c.dataWrite8(c.addr(&s1), v)
			}, true
		}
	case OpMOVZBL:
		if s0.kind == kMem && s1.kind == kReg {
			return func(c *CPU) error {
				v, err := c.read8(&s0)
				if err != nil {
					return err
				}
				c.setNZ(uint32(v))
				c.regs[d] = uint32(v)
				return nil
			}, false
		}
	case OpPUSHL:
		if aRI {
			return func(c *CPU) error { return c.push(c.regs[a&15] + ka) }, true
		}
	case OpTSTL:
		if aRI {
			return func(c *CPU) error { c.setNZ(c.regs[a&15] + ka); return nil }, false
		}
	case OpCMPL:
		if aRI && bRI {
			return func(c *CPU) error {
				c.subFlags(c.regs[a&15]+ka, c.regs[b&15]+kb)
				return nil
			}, false
		}
	case OpINCL, OpDECL:
		if s0.kind == kReg {
			r := s0.reg & 15
			if e.op == OpINCL {
				return func(c *CPU) error { c.regs[r] = c.addFlags(c.regs[r], 1); return nil }, false
			}
			return func(c *CPU) error { c.regs[r] = c.subFlags(c.regs[r], 1); return nil }, false
		}
	case OpADDL2, OpSUBL2:
		if aRI && s1.kind == kReg {
			if e.op == OpADDL2 {
				return func(c *CPU) error { c.regs[d] = c.addFlags(c.regs[d], c.regs[a&15]+ka); return nil }, false
			}
			return func(c *CPU) error { c.regs[d] = c.subFlags(c.regs[d], c.regs[a&15]+ka); return nil }, false
		}
	}
	if isBranch(e.op) {
		return compileBranch(e.op, pc+uint32(e.size)+s0.ext), false
	}
	cp := *e
	return func(c *CPU) error { return c.exec(&cp) }, mayStore(e)
}

// mayStore reports whether exec of e may write memory.
func mayStore(e *inst) bool {
	if e.op == OpPUSHL || e.op == OpCALLS {
		return true
	}
	for i, kind := range opDense[e.op].operands {
		if (kind == opdWrite || kind == opdRW) && e.spec[i].kind != kReg {
			return true
		}
	}
	return false
}

// compileALU3 specializes a 3-operand form whose sources are registers or
// immediates and whose destination is a register.
func compileALU3(op Op, a uint8, ka uint32, b uint8, kb uint32, d uint8) func(*CPU) error {
	switch op {
	case OpADDL3:
		return func(c *CPU) error { c.regs[d] = c.addFlags(c.regs[b]+kb, c.regs[a]+ka); return nil }
	case OpSUBL3:
		return func(c *CPU) error { c.regs[d] = c.subFlags(c.regs[a]+ka, c.regs[b]+kb); return nil }
	case OpANDL3:
		return func(c *CPU) error { v := (c.regs[a] + ka) & (c.regs[b] + kb); c.setNZ(v); c.regs[d] = v; return nil }
	case OpORL3:
		return func(c *CPU) error { v := (c.regs[a] + ka) | (c.regs[b] + kb); c.setNZ(v); c.regs[d] = v; return nil }
	case OpXORL3:
		return func(c *CPU) error { v := (c.regs[a] + ka) ^ (c.regs[b] + kb); c.setNZ(v); c.regs[d] = v; return nil }
	default: // OpASHL
		return func(c *CPU) error {
			cnt, v := c.regs[a]+ka, c.regs[b]+kb
			if int32(cnt) >= 0 {
				v <<= cnt & 31
			} else {
				v = uint32(int32(v) >> (-cnt & 31))
			}
			c.setNZ(v)
			c.regs[d] = v
			return nil
		}
	}
}

// compileBranch specializes BR or a Bcc whose taken target is t: one
// closure per condition, each testing the flags as flags.taken does. The
// cursor already holds the fall-through PC.
func compileBranch(op Op, t uint32) func(*CPU) error {
	switch op {
	case OpBR:
		return func(c *CPU) error { c.stat.Transfers++; c.take(t); return nil }
	case OpBEQ:
		return func(c *CPU) error {
			c.stat.Transfers++
			if c.flags.Z {
				c.take(t)
			}
			return nil
		}
	case OpBNE:
		return func(c *CPU) error {
			c.stat.Transfers++
			if !c.flags.Z {
				c.take(t)
			}
			return nil
		}
	case OpBGT:
		return func(c *CPU) error {
			c.stat.Transfers++
			if !c.flags.Z && c.flags.N == c.flags.V {
				c.take(t)
			}
			return nil
		}
	case OpBLE:
		return func(c *CPU) error {
			c.stat.Transfers++
			if c.flags.Z || c.flags.N != c.flags.V {
				c.take(t)
			}
			return nil
		}
	case OpBGE:
		return func(c *CPU) error {
			c.stat.Transfers++
			if c.flags.N == c.flags.V {
				c.take(t)
			}
			return nil
		}
	case OpBLT:
		return func(c *CPU) error {
			c.stat.Transfers++
			if c.flags.N != c.flags.V {
				c.take(t)
			}
			return nil
		}
	case OpBHI:
		return func(c *CPU) error {
			c.stat.Transfers++
			if c.flags.C && !c.flags.Z {
				c.take(t)
			}
			return nil
		}
	case OpBLOS:
		return func(c *CPU) error {
			c.stat.Transfers++
			if !c.flags.C || c.flags.Z {
				c.take(t)
			}
			return nil
		}
	case OpBHIS:
		return func(c *CPU) error {
			c.stat.Transfers++
			if c.flags.C {
				c.take(t)
			}
			return nil
		}
	default: // OpBLO
		return func(c *CPU) error {
			c.stat.Transfers++
			if !c.flags.C {
				c.take(t)
			}
			return nil
		}
	}
}
