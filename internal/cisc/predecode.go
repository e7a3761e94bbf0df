package cisc

import "fmt"

// Predecoded instruction cache.
//
// A CX instruction's structure is static: its opcode, and for each operand
// specifier the mode, registers, extension value and length. Only effective
// addresses and operand values depend on machine state. So the first
// execution at a PC decodes the instruction's bytes into an inst, and later
// executions run from it without reading instruction bytes. An entry
// charges FetchBytes and specifier microcycles as the byte-at-a-time fetch
// unit did, so Stats and RunError are the same either way.

// opndKind says how a predecoded specifier is evaluated.
type opndKind uint8

const (
	kReg   opndKind = iota // regs[reg]
	kImm                   // the value ext; as a destination it names address 0
	kMem                   // memory at regs[reg] + ext + regs[idx]<<shift
	kFault                 // decoding failed here: evaluating it raises CPU.badSpec
)

// zeroReg is the register slot past r14 that always reads 0: modes without
// a base or index register use it, so every memory mode shares one address
// formula.
const zeroReg = NumRegs

// opnd is one predecoded operand specifier, or the literal of a branch
// displacement (kImm, sign-extended) or CALLS count (kImm).
type opnd struct {
	kind   opndKind
	reg    uint8 // base register (kReg, kMem)
	idx    uint8 // index register (kMem)
	shift  uint8 // index scale: 2 for longword, 0 for byte indexing
	size   uint8 // bytes fetched for this specifier
	cycles uint8 // specCycles of its mode
	// tailSize and tailCycles are what the specifiers after this one
	// charge. An entry charges all of its specifiers up front; a fault
	// while reading this operand gives the tail back, since the byte
	// decoder would not yet have fetched it.
	tailSize, tailCycles uint8
	ext                  uint32 // displacement, absolute address or immediate
}

// inst is one predecoded instruction. For a complete entry size is the
// instruction length; for a scratch entry that stops at a kFault specifier
// it is the bytes fetched before the fault.
type inst struct {
	op     Op
	size   uint8
	cycles uint8 // opcode base plus every specifier's microcycles
	spec   [3]opnd
}

// armCache sizes the instruction cache to the image's code segment and arms
// the write watch that keeps it coherent with self-modifying stores.
// Compiled images mark the code/data boundary with __data_start; hand-written
// images are treated as all code. Storage is one int32 per code byte plus
// one inst per instruction that has run, and one block pointer per code
// byte; all are reused across Load.
func (c *CPU) armCache(img *Image) {
	n := len(img.Bytes)
	if ds, ok := img.Symbols["__data_start"]; ok &&
		ds >= img.Org && ds <= img.Org+uint32(len(img.Bytes)) {
		n = int(ds - img.Org)
	}
	c.codeOrg = img.Org
	if cap(c.index) >= n {
		c.index = c.index[:n]
		clear(c.index)
	} else {
		c.index = make([]int32, n)
	}
	c.insts = c.insts[:0]
	if cap(c.blocks) >= n {
		c.blocks = c.blocks[:n]
		clear(c.blocks)
	} else {
		c.blocks = make([]*block, n)
	}
	c.blockSpan = 0
	c.Mem.SetWriteWatch(img.Org, img.Org+uint32(n), c.invalidateCode)
}

// invalidateCode drops entries that could overlap a store at addr, and the
// blocks holding them. An entry starting at offset i spans at most
// maxInstBytes, so every entry from maxInstBytes-1 before the store through
// its last byte is suspect.
func (c *CPU) invalidateCode(addr uint32, size int) {
	c.codeGen++
	lo := c.codeOrg
	if addr > c.codeOrg+maxInstBytes-1 {
		lo = addr - (maxInstBytes - 1)
	}
	hi := addr + uint32(size)
	if end := c.codeOrg + uint32(len(c.index)); hi > end {
		hi = end
	}
	c.dropBlocks(lo-c.codeOrg, hi-c.codeOrg)
	for i := lo - c.codeOrg; i < hi-c.codeOrg; i++ {
		if c.index[i] > 0 {
			c.index[i] = -c.index[i]
		}
	}
}

// record caches the scratch entry decoded at pc, unless the instruction
// straddles the end of the code segment.
func (c *CPU) record(pc uint32) {
	off := pc - c.codeOrg
	if off >= uint32(len(c.index)) || off+uint32(c.scratch.size) > uint32(len(c.index)) {
		return
	}
	if v := c.index[off]; v < 0 {
		c.insts[-v-1] = c.scratch
		c.index[off] = -v
		return
	}
	c.insts = append(c.insts, c.scratch)
	c.index[off] = int32(len(c.insts))
}

// decode reads the instruction with opcode op at pc into c.scratch, one
// byte at a time from memory. A specifier that fails to decode (a fetch
// fault, an undefined register or mode) becomes kFault with the bytes and
// microcycles the byte decoder charged before failing, and ends the entry;
// decode then reports false and the entry must not be cached.
func (c *CPU) decode(pc uint32, op Op) bool {
	e := &c.scratch
	info := &opDense[op]
	*e = inst{op: op, size: 1, cycles: uint8(info.base)}
	ok := true
	last := len(info.operands) - 1
	for i, kind := range info.operands {
		s := &e.spec[i]
		var err error
		switch kind {
		case opdDisp:
			var d uint32
			d, err = c.fetchExt(pc+uint32(e.size), 2, s)
			s.ext = uint32(int32(int16(d)))
		case opdCount:
			s.ext, err = c.fetchExt(pc+uint32(e.size), 1, s)
		default:
			err = c.decodeSpec(pc+uint32(e.size), s)
		}
		e.size += s.size
		e.cycles += s.cycles
		if err != nil {
			s.kind = kFault
			c.badSpec = err
			ok, last = false, i
			break
		}
	}
	var size, cycles uint8
	for i := last; i >= 0; i-- {
		s := &e.spec[i]
		s.tailSize, s.tailCycles = size, cycles
		size += s.size
		cycles += s.cycles
	}
	return ok
}

// fetchExt reads an n-byte big-endian literal at addr, counting each byte
// fetched in s.size. The literal is a kImm operand.
func (c *CPU) fetchExt(addr uint32, n int, s *opnd) (uint32, error) {
	var v uint32
	for i := 0; i < n; i++ {
		b, err := c.Mem.FetchByte(addr + uint32(i))
		if err != nil {
			return 0, err
		}
		v = v<<8 | uint32(b)
		s.size++
	}
	return v, nil
}

// decodeSpec decodes the operand specifier at addr into s.
func (c *CPU) decodeSpec(addr uint32, s *opnd) error {
	b, err := c.Mem.FetchByte(addr)
	if err != nil {
		return err
	}
	s.size = 1
	mode := addrMode(b >> 4)
	reg := b & 0xF
	// The 4-bit register field can encode 15, but the file has r0..r14.
	if reg >= NumRegs && mode != modeImm8 && mode != modeImm32 && mode != modeAbs {
		return fmt.Errorf("cisc: undefined register r%d in specifier %#02x", reg, b)
	}
	s.cycles = uint8(specCycles(mode))
	s.kind, s.reg, s.idx = kMem, reg, zeroReg
	switch mode {
	case modeReg:
		s.kind = kReg
	case modeDeref:
	case modeDisp8:
		d, err := c.fetchExt(addr+1, 1, s)
		if err != nil {
			return err
		}
		s.ext = uint32(int32(int8(d)))
	case modeDisp32:
		s.ext, err = c.fetchExt(addr+1, 4, s)
	case modeImm8:
		d, err := c.fetchExt(addr+1, 1, s)
		if err != nil {
			return err
		}
		s.kind, s.ext = kImm, uint32(int32(int8(d)))
	case modeImm32:
		s.kind = kImm
		s.ext, err = c.fetchExt(addr+1, 4, s)
	case modeAbs:
		s.reg = zeroReg
		s.ext, err = c.fetchExt(addr+1, 4, s)
	case modeIndex, modeIndexB:
		x, err := c.fetchExt(addr+1, 1, s)
		if err != nil {
			return err
		}
		if x&0xF >= NumRegs {
			return fmt.Errorf("cisc: undefined index register r%d", x&0xF)
		}
		s.idx, s.shift = uint8(x&0xF), 2
		if mode == modeIndexB {
			s.shift = 0
		}
	default:
		return fmt.Errorf("cisc: undefined addressing mode %#x", uint8(mode))
	}
	return err
}
