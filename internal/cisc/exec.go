package cisc

import (
	"errors"
	"fmt"
)

// category buckets for the instruction-mix statistics, chosen to be
// comparable with the RISC I categories.
func category(op Op) string {
	switch {
	case op == OpHALT:
		return "misc"
	case op >= OpMOVL && op <= OpCLRL:
		return "move"
	case op >= OpADDL2 && op <= OpDECL:
		return "alu"
	case op >= OpCMPL && op <= OpTSTL:
		return "compare"
	case op == OpCALLS || op == OpRET:
		return "call"
	default:
		return "control"
	}
}

// Step executes one CX instruction. The MaxCycles budget is exact: a step
// that would begin at or beyond the limit does not execute, so both Run
// loops and external Step callers observe the abort at the same
// deterministic microcycle.
func (c *CPU) Step() error {
	if c.halted {
		return ErrHalted
	}
	if c.cycles >= c.cfg.MaxCycles {
		return c.runError(c.pc, ErrMaxCycles)
	}
	pc := c.pc
	if off := pc - c.codeOrg; off < uint32(len(c.index)) {
		if v := c.index[off]; v > 0 {
			return c.run(pc, &c.insts[v-1])
		}
	}
	// A miss decodes from memory, then runs the decoded entry. Only a
	// complete decode that executes without error and without storing
	// into code is cached: a store could have rewritten the very bytes
	// just decoded.
	opByte, err := c.Mem.FetchByte(pc)
	if err != nil {
		return c.runError(pc, err)
	}
	if !Op(opByte).Valid() {
		c.fetchBytes++
		return c.runError(pc, fmt.Errorf("undefined opcode %#02x", opByte))
	}
	complete := c.decode(pc, Op(opByte))
	gen := c.codeGen
	if err := c.run(pc, &c.scratch); err != nil {
		return err
	}
	if complete && !c.noCache && c.codeGen == gen {
		c.record(pc)
	}
	return nil
}

// run executes the decoded instruction e at pc, charging its fetch bytes
// and microcycles.
func (c *CPU) run(pc uint32, e *inst) error {
	c.instructions++
	c.opCounts[e.op]++
	c.cycles += uint64(e.cycles)
	c.fetchBytes += uint64(e.size)
	c.cursor = pc + uint32(e.size)
	if err := c.exec(e); err != nil {
		return c.runError(pc, err)
	}
	if !c.halted {
		// Control transfers set pc themselves by moving the cursor.
		c.pc = c.cursor
	}
	return nil
}

func (c *CPU) exec(e *inst) error {
	s0, s1, s2 := &e.spec[0], &e.spec[1], &e.spec[2]
	switch e.op {
	case OpHALT:
		c.halted = true
		return nil

	case OpMOVL:
		v, err := c.read32(s0)
		if err != nil {
			return err
		}
		return c.writeNZ(s1, v)
	case OpMOVAL:
		if s0.kind != kMem {
			return c.needAddress(s0, "moval needs a memory operand")
		}
		return c.write32(s1, c.addr(s0))
	case OpPUSHL:
		v, err := c.read32(s0)
		if err != nil {
			return err
		}
		return c.push(v)
	case OpPOPL:
		if s0.kind == kFault {
			return c.badSpec
		}
		// The destination's address is formed before the pop moves SP.
		addr := c.ea(s0)
		v, err := c.pop()
		if err != nil {
			return err
		}
		return c.writeAt(s0, addr, v)
	case OpCLRL:
		return c.writeNZ(s0, 0)
	case OpTSTL:
		v, err := c.read32(s0)
		if err != nil {
			return err
		}
		c.setNZ(v)
		return nil

	case OpMOVB:
		b, err := c.read8(s0)
		if err != nil {
			return err
		}
		c.setNZ(uint32(b))
		return c.write8(s1, b)
	case OpCVTBL:
		b, err := c.read8(s0)
		if err != nil {
			return err
		}
		return c.writeNZ(s1, uint32(int32(int8(b))))
	case OpMOVZBL:
		b, err := c.read8(s0)
		if err != nil {
			return err
		}
		return c.writeNZ(s1, uint32(b))
	case OpCMPB:
		a, err := c.read8(s0)
		if err != nil {
			return err
		}
		b, err := c.read8(s1)
		if err != nil {
			return err
		}
		c.subFlags(uint32(int32(int8(a))), uint32(int32(int8(b))))
		return nil

	case OpINCL:
		v, addr, err := c.readModify(s0)
		if err != nil {
			return err
		}
		return c.writeAt(s0, addr, c.addFlags(v, 1))
	case OpDECL:
		v, addr, err := c.readModify(s0)
		if err != nil {
			return err
		}
		return c.writeAt(s0, addr, c.subFlags(v, 1))
	case OpCMPL:
		a, b, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		c.subFlags(a, b)
		return nil

	// 2-operand forms read-modify-write their second operand: op src, dst.
	case OpADDL2:
		a, b, addr, err := c.modify2(s0, s1)
		if err != nil {
			return err
		}
		return c.writeAt(s1, addr, c.addFlags(b, a))
	case OpSUBL2:
		a, b, addr, err := c.modify2(s0, s1)
		if err != nil {
			return err
		}
		return c.writeAt(s1, addr, c.subFlags(b, a)) // dst -= src
	case OpMULL2:
		a, b, addr, err := c.modify2(s0, s1)
		if err != nil {
			return err
		}
		r := uint32(int32(a) * int32(b))
		c.setNZ(r)
		return c.writeAt(s1, addr, r)
	case OpDIVL2:
		a, b, addr, err := c.modify2(s0, s1)
		if err != nil {
			return err
		}
		if a == 0 {
			return errDivZero
		}
		r := uint32(int32(b) / int32(a)) // dst /= src
		c.setNZ(r)
		return c.writeAt(s1, addr, r)

	// 3-operand forms write a separate destination: op a, b, dst.
	case OpADDL3:
		a, b, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		return c.write32(s2, c.addFlags(b, a))
	case OpSUBL3:
		a, b, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		return c.write32(s2, c.subFlags(a, b)) // dst = a - b
	case OpMULL3:
		a, b, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		return c.writeNZ(s2, uint32(int32(a)*int32(b)))
	case OpDIVL3:
		a, b, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		// The byte decoder reached the destination before the divide,
		// so its decode fault takes precedence.
		if s2.kind == kFault {
			return c.badSpec
		}
		if b == 0 {
			return errDivZero
		}
		return c.writeNZ(s2, uint32(int32(a)/int32(b))) // dst = a / b
	case OpANDL3:
		a, b, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		return c.writeNZ(s2, a&b)
	case OpORL3:
		a, b, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		return c.writeNZ(s2, a|b)
	case OpXORL3:
		a, b, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		return c.writeNZ(s2, a^b)
	case OpASHL: // ashl count, src, dst: negative counts shift right
		cnt, v, err := c.read2(s0, s1)
		if err != nil {
			return err
		}
		if int32(cnt) >= 0 {
			return c.writeNZ(s2, v<<(cnt&31))
		}
		return c.writeNZ(s2, uint32(int32(v)>>(-cnt&31)))

	case OpBR, OpBEQ, OpBNE, OpBGT, OpBLE, OpBGE, OpBLT, OpBHI, OpBLOS, OpBHIS, OpBLO:
		return c.branch(s0, c.flags.taken(e.op))
	case OpJMP:
		if s0.kind != kMem {
			return c.needAddress(s0, "jmp needs an address operand")
		}
		c.cursor = c.addr(s0)
		c.stat.Transfers++
		return nil

	case OpCALLS:
		if s0.kind == kFault {
			return c.badSpec
		}
		if s1.kind != kMem {
			return c.needAddress(s1, "calls needs an address operand")
		}
		return c.callTo(s0.ext, c.addr(s1), c.cursor)
	case OpRET:
		return c.execRet()
	}
	return fmt.Errorf("unimplemented opcode %v", e.op)
}

var errDivZero = errors.New("divide by zero")

// addr is the effective address of a kMem specifier.
func (c *CPU) addr(s *opnd) uint32 {
	return c.regs[s.reg&15] + s.ext + c.regs[s.idx&15]<<s.shift
}

// ea is addr for a destination that may be kImm, whose address is 0 (the
// address the byte decoder gave an immediate used as a destination).
func (c *CPU) ea(s *opnd) uint32 {
	if s.kind == kImm {
		return 0
	}
	return c.addr(s)
}

// needAddress rejects a register, immediate or undecodable operand where
// an address is required.
func (c *CPU) needAddress(s *opnd, msg string) error {
	if s.kind == kFault {
		return c.badSpec
	}
	c.uncharge(s)
	return errors.New(msg)
}

// uncharge gives back what the specifiers after s charged: the instruction
// stopped at s, before the byte decoder would have fetched them.
func (c *CPU) uncharge(s *opnd) {
	c.fetchBytes -= uint64(s.tailSize)
	c.cycles -= uint64(s.tailCycles)
}

// read32/read8 evaluate a source operand; readModify evaluates a
// read-modify-write operand and also returns its address for writeAt.
// write32/write8 store a result to a destination operand.

func (c *CPU) read32(s *opnd) (uint32, error) {
	switch s.kind {
	case kReg:
		return c.regs[s.reg&15], nil
	case kImm:
		return s.ext, nil
	case kMem:
		v, err := c.dataRead32(c.addr(s))
		if err != nil {
			c.uncharge(s)
		}
		return v, err
	}
	return 0, c.badSpec
}

func (c *CPU) read8(s *opnd) (uint8, error) {
	switch s.kind {
	case kReg:
		return uint8(c.regs[s.reg&15]), nil
	case kImm:
		return uint8(s.ext), nil
	case kMem:
		v, err := c.dataRead8(c.addr(s))
		if err != nil {
			c.uncharge(s)
		}
		return v, err
	}
	return 0, c.badSpec
}

func (c *CPU) readModify(s *opnd) (v, addr uint32, err error) {
	switch s.kind {
	case kReg:
		return c.regs[s.reg&15], 0, nil
	case kImm:
		return s.ext, 0, nil
	case kMem:
		addr = c.addr(s)
		v, err = c.dataRead32(addr)
		if err != nil {
			c.uncharge(s)
		}
		return v, addr, err
	}
	return 0, 0, c.badSpec
}

// read2 evaluates the two source operands of a compare or 3-operand form.
func (c *CPU) read2(s0, s1 *opnd) (a, b uint32, err error) {
	if a, err = c.read32(s0); err != nil {
		return 0, 0, err
	}
	b, err = c.read32(s1)
	return a, b, err
}

// modify2 evaluates a 2-operand form's source and its read-modify-write
// destination, returning the destination's address for writeAt.
func (c *CPU) modify2(s0, s1 *opnd) (a, b, addr uint32, err error) {
	if a, err = c.read32(s0); err != nil {
		return 0, 0, 0, err
	}
	b, addr, err = c.readModify(s1)
	return a, b, addr, err
}

// writeNZ sets N and Z from v, clears V and C, and stores v to s.
func (c *CPU) writeNZ(s *opnd, v uint32) error {
	c.setNZ(v)
	return c.write32(s, v)
}

// writeAt stores v to s, whose address addr was formed earlier.
func (c *CPU) writeAt(s *opnd, addr, v uint32) error {
	if s.kind == kReg {
		c.regs[s.reg&15] = v
		return nil
	}
	return c.dataWrite32(addr, v)
}

func (c *CPU) write32(s *opnd, v uint32) error {
	switch s.kind {
	case kReg:
		c.regs[s.reg&15] = v
		return nil
	case kFault:
		return c.badSpec
	}
	return c.dataWrite32(c.ea(s), v)
}

func (c *CPU) write8(s *opnd, v uint8) error {
	switch s.kind {
	case kReg:
		c.regs[s.reg&15] = c.regs[s.reg&15]&^0xFF | uint32(v)
		return nil
	case kFault:
		return c.badSpec
	}
	return c.dataWrite8(c.ea(s), v)
}

func (c *CPU) addFlags(a, b uint32) uint32 {
	full := uint64(a) + uint64(b)
	r := uint32(full)
	c.flags.Z = r == 0
	c.flags.N = int32(r) < 0
	c.flags.C = full > 0xFFFFFFFF
	c.flags.V = (a^b)&0x80000000 == 0 && (a^r)&0x80000000 != 0
	return r
}

// subFlags computes a-b with the same carry convention as the RISC side:
// C set means no borrow (a >= b unsigned).
func (c *CPU) subFlags(a, b uint32) uint32 {
	full := uint64(a) - uint64(b)
	r := uint32(full)
	c.flags.Z = r == 0
	c.flags.N = int32(r) < 0
	c.flags.C = full <= 0xFFFFFFFF
	c.flags.V = (a^b)&0x80000000 != 0 && (a^r)&0x80000000 != 0
	return r
}

// taken reports whether BR or the Bcc op branches under the flags f.
func (f flags) taken(op Op) bool {
	switch op {
	case OpBEQ:
		return f.Z
	case OpBNE:
		return !f.Z
	case OpBGT:
		return !f.Z && f.N == f.V
	case OpBLE:
		return f.Z || f.N != f.V
	case OpBGE:
		return f.N == f.V
	case OpBLT:
		return f.N != f.V
	case OpBHI:
		return f.C && !f.Z
	case OpBLOS:
		return !f.C || f.Z
	case OpBHIS:
		return f.C
	case OpBLO:
		return !f.C
	}
	return true // OpBR
}

// branch completes BR or a Bcc whose displacement literal is d: taken
// branches move the cursor and refill the microsequencer.
func (c *CPU) branch(d *opnd, taken bool) error {
	if d.kind == kFault {
		return c.badSpec
	}
	c.stat.Transfers++
	if taken {
		c.cursor += d.ext
		c.cycles++
	}
	return nil
}

// callTo performs the CALLS stack build; retPC is where RET will resume.
func (c *CPU) callTo(n, target, retPC uint32) error {
	return c.doCallsCounted(n, target, retPC, true)
}

// doCalls is the uncounted variant used by Load to enter the program.
func (c *CPU) doCalls(n, target, retPC uint32) error {
	return c.doCallsCounted(n, target, retPC, false)
}

func (c *CPU) doCallsCounted(n, target, retPC uint32, counted bool) error {
	if err := c.push(n); err != nil {
		return err
	}
	apNew := c.regs[SP]
	for _, v := range []uint32{retPC, c.regs[FP], c.regs[AP]} {
		if err := c.push(v); err != nil {
			return err
		}
	}
	// The register-save mask is the first two bytes of the procedure.
	hi, err := c.Mem.FetchByte(target)
	if err != nil {
		return err
	}
	lo, err := c.Mem.FetchByte(target + 1)
	if err != nil {
		return err
	}
	mask := uint32(hi)<<8 | uint32(lo)
	for r := uint8(0); r < 12; r++ {
		if mask&(1<<r) != 0 {
			if err := c.push(c.regs[r]); err != nil {
				return err
			}
		}
	}
	if err := c.push(mask); err != nil {
		return err
	}
	c.regs[FP] = c.regs[SP]
	c.regs[AP] = apNew
	c.cursor = target + 2
	c.pc = target + 2
	if counted {
		c.stat.Calls++
		c.stat.Transfers++
		c.callDepth++
		if c.callDepth > c.stat.MaxCallDepth {
			c.stat.MaxCallDepth = c.callDepth
		}
	}
	return nil
}

// execRet unwinds the CALLS frame: restore masked registers, AP, FP, resume
// PC, and pop the arguments.
func (c *CPU) execRet() error {
	fp := c.regs[FP]
	mask, err := c.dataRead32(fp)
	if err != nil {
		return err
	}
	off := uint32(4)
	for r := 11; r >= 0; r-- {
		if mask&(1<<uint(r)) != 0 {
			v, err := c.dataRead32(fp + off)
			if err != nil {
				return err
			}
			c.regs[r] = v
			off += 4
		}
	}
	ap, err := c.dataRead32(fp + off)
	if err != nil {
		return err
	}
	oldFP, err := c.dataRead32(fp + off + 4)
	if err != nil {
		return err
	}
	retPC, err := c.dataRead32(fp + off + 8)
	if err != nil {
		return err
	}
	n, err := c.dataRead32(fp + off + 12)
	if err != nil {
		return err
	}
	c.regs[SP] = fp + off + 16 + 4*n
	c.regs[FP] = oldFP
	c.regs[AP] = ap
	c.stat.Returns++
	c.stat.Transfers++
	c.callDepth--
	if retPC == HaltPC {
		c.halted = true
		return nil
	}
	c.cursor = retPC
	return nil
}
