package cisc

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"risc1/internal/mem"
	"risc1/internal/stats"
)

// HaltPC is the sentinel return address planted under the entry procedure:
// a RET that lands here stops the machine (the CX counterpart of the RISC I
// halt convention).
const HaltPC = 0xFFFF0000

// Config sizes a CX machine.
type Config struct {
	MemSize   int    // RAM bytes (default 1 MiB)
	MaxCycles uint64 // microcycle budget (default 4e9, ≈13 min at 200ns)
}

func (c Config) withDefaults() Config {
	if c.MemSize == 0 {
		c.MemSize = 1 << 20
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 4e9
	}
	return c
}

// Sentinel errors.
var (
	ErrMaxCycles = errors.New("cisc: microcycle limit exceeded")
	ErrHalted    = errors.New("cisc: machine is halted")
)

// RunError is a structured execution fault: the wrapped cause plus the
// faulting PC, the disassembly of the instruction there (when it decodes),
// the microcycle count, and a snapshot of the register file.
type RunError struct {
	PC     uint32
	Inst   string   // disassembly of the faulting instruction ("" if undecodable)
	Cycles uint64   // microcycle count when the fault was raised
	Regs   []uint32 // r0..r14 (including ap/fp/sp) at the fault
	Err    error
}

// Error is the pre-hardening name for RunError, kept for callers that match
// on *cisc.Error.
type Error = RunError

func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cisc: at pc %#08x", e.PC)
	if e.Inst != "" {
		fmt.Fprintf(&b, " (%s)", e.Inst)
	}
	if e.Cycles > 0 {
		fmt.Fprintf(&b, " cycle %d", e.Cycles)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	return b.String()
}

func (e *RunError) Unwrap() error { return e.Err }

// runError builds a RunError for a fault at pc, snapshotting machine state.
func (c *CPU) runError(pc uint32, err error) *RunError {
	e := &RunError{
		PC:     pc,
		Cycles: c.cycles,
		Regs:   append([]uint32(nil), c.regs[:NumRegs]...),
		Err:    err,
	}
	// Disassemble the faulting instruction from memory; a variable-length
	// instruction spans at most maxInstBytes, and any fetch failure just
	// truncates the window (decodeAt then falls back to a .byte line).
	var buf [maxInstBytes]byte
	n := 0
	for ; n < maxInstBytes; n++ {
		b, ferr := c.Mem.FetchByte(pc + uint32(n))
		if ferr != nil {
			break
		}
		buf[n] = b
	}
	if n > 0 {
		if text, _ := decodeAt(buf[:n], 0, pc); !strings.HasPrefix(text, ".byte") {
			e.Inst = text
		}
	}
	return e
}

type flags struct{ Z, N, V, C bool }

// CPU is one CX processor with its memory.
type CPU struct {
	cfg    Config
	Mem    *mem.Memory
	regs   [NumRegs + 1]uint32 // r0..r14, then zeroReg, which stays 0
	pc     uint32
	flags  flags
	halted bool
	stat   *stats.Stats

	// The hot counters live here rather than behind stat; Stats copies
	// them out.
	instructions, cycles, fetchBytes uint64

	cursor    uint32 // next PC; control transfers move it
	callDepth int
	opCounts  [256]uint64 // per-opcode execution counts (hot path)

	// Predecoded instruction cache (see predecode.go). index maps a code
	// offset to its entry: 0 means none was ever recorded there, v > 0
	// names insts[v-1], and v < 0 an invalidated insts[-v-1], whose slot
	// the next recording at that offset reuses, so storage stays bounded
	// even under code that patches itself on every pass. scratch holds
	// the instruction decoded on a miss, and badSpec is the fault a
	// scratch entry's kFault specifier stands for.
	codeOrg uint32
	index   []int32
	insts   []inst
	scratch inst
	badSpec error
	codeGen uint64 // bumped by every store into the code segment
	noCache bool   // decode every execution (the differential tests' bypass)

	// Block tier (see block.go). blocks[off] is the compiled block whose
	// leader is at code offset off, or nil; blockSpan is the widest distance
	// from a leader to its block's last instruction since Load.
	blocks    []*block
	blockSpan uint32

	// Progress, when non-nil, is called at RunContext batch boundaries —
	// once per runBatch (4096) instructions — with the instruction and
	// microcycle counters retired so far. It runs on the simulation
	// goroutine; keep it cheap.
	Progress func(instructions, cycles uint64)
}

// maxInstBytes bounds one CX instruction: opcode plus three operand
// specifiers of at most five bytes each (specifier byte + 32-bit extension).
const maxInstBytes = 16

// New builds a CX machine. Call Load before stepping.
func New(cfg Config) *CPU {
	cfg = cfg.withDefaults()
	return &CPU{cfg: cfg, Mem: mem.New(cfg.MemSize), stat: stats.New()}
}

// Load places an image in memory and performs the initial call into the
// entry procedure (so the entry's .mask and RET work like any other
// procedure). Statistics start from zero afterwards.
func (c *CPU) Load(img *Image) error {
	c.regs = [NumRegs + 1]uint32{}
	c.flags = flags{}
	c.halted = false
	c.callDepth = 0
	if err := c.Mem.LoadProgram(img.Org, img.Bytes); err != nil {
		return err
	}
	c.armCache(img)
	c.regs[SP] = uint32(c.cfg.MemSize) &^ 7
	if err := c.doCalls(0, img.Entry, HaltPC); err != nil {
		return err
	}
	c.stat = stats.New()
	c.instructions, c.cycles, c.fetchBytes = 0, 0, 0
	c.opCounts = [256]uint64{}
	c.Mem.ResetCounters()
	return nil
}

// Accessors.

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// Halted reports whether the machine has stopped.
func (c *CPU) Halted() bool { return c.halted }

// Reg reads a general register.
func (c *CPU) Reg(r uint8) uint32 { return c.regs[:NumRegs][r] }

// SetReg writes a general register (test harness use).
func (c *CPU) SetReg(r uint8, v uint32) { c.regs[:NumRegs][r] = v }

// Console returns console output so far.
func (c *CPU) Console() string { return c.Mem.Console() }

// Stats returns execution statistics with memory traffic synced, the runs
// of compiled blocks added in, and the instruction-mix maps materialized
// from the hot-path counters.
func (c *CPU) Stats() *stats.Stats {
	for _, b := range c.blocks {
		if b != nil {
			c.flushBlock(b)
		}
	}
	c.stat.Instructions = c.instructions
	c.stat.Cycles = c.cycles
	c.stat.FetchBytes = c.fetchBytes
	c.stat.DataReads = c.Mem.Reads
	c.stat.DataWrites = c.Mem.Writes
	c.stat.ByName = map[string]uint64{}
	c.stat.ByCategory = map[string]uint64{}
	for opv, n := range c.opCounts {
		if n == 0 {
			continue
		}
		op := Op(opv)
		c.stat.ByName[op.Name()] = n
		c.stat.ByCategory[category(op)] += n
	}
	return c.stat
}

// runBatch is how many instructions RunContext executes between checks of
// the context, mirroring the core simulator's batch size.
const runBatch = 4096

// maxBlock caps how many instructions one compiled block spans.
const maxBlock = 64

// Run executes until halt, fault or the microcycle budget runs out.
func (c *CPU) Run() error { return c.RunContext(context.Background()) }

// RunContext is Run honoring ctx: cancellation or deadline expiry aborts the
// run at the next batch boundary (within runBatch instructions) with a
// RunError wrapping ctx.Err(). Code that already ran once runs as compiled
// basic blocks (block.go); everything else, and whatever a block may not
// start, goes through Step. Either way the microcycle budget is enforced
// exactly, at the instruction Step would refuse.
func (c *CPU) RunContext(ctx context.Context) error {
	done := ctx.Done()
	for !c.halted {
		if done != nil {
			select {
			case <-done:
				return c.runError(c.pc, ctx.Err())
			default:
			}
		}
		for left := runBatch; left > 0 && !c.halted; left-- {
			n, err := c.runBlocks(left)
			if err != nil {
				return err
			}
			if left -= n; left == 0 || c.halted {
				break
			}
			if err := c.Step(); err != nil {
				return err
			}
		}
		if c.Progress != nil {
			c.Progress(c.instructions, c.cycles)
		}
	}
	return nil
}

// dataRead / dataWrite funnel every operand memory access through the cost
// model: each access costs two microcycles on top of the instruction base.
const accessCycles = 2

func (c *CPU) dataRead32(addr uint32) (uint32, error) {
	c.cycles += accessCycles
	return c.Mem.Load32(addr)
}

func (c *CPU) dataRead8(addr uint32) (uint8, error) {
	c.cycles += accessCycles
	return c.Mem.Load8(addr)
}

func (c *CPU) dataWrite32(addr uint32, v uint32) error {
	c.cycles += accessCycles
	return c.Mem.Store32(addr, v)
}

func (c *CPU) dataWrite8(addr uint32, v uint8) error {
	c.cycles += accessCycles
	return c.Mem.Store8(addr, v)
}

func (c *CPU) push(v uint32) error {
	c.regs[SP] -= 4
	return c.dataWrite32(c.regs[SP], v)
}

func (c *CPU) pop() (uint32, error) {
	v, err := c.dataRead32(c.regs[SP])
	c.regs[SP] += 4
	return v, err
}

func (c *CPU) setNZ(v uint32) {
	c.flags.Z = v == 0
	c.flags.N = int32(v) < 0
	c.flags.V = false
	c.flags.C = false
}
