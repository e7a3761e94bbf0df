// Package core implements the RISC I processor itself: the paper's primary
// contribution. It executes the 31-instruction ISA with delayed control
// transfers, optional condition-code setting, and the overlapping register
// windows of package regwin, including the window overflow/underflow traps
// that spill to a register-save stack in memory.
//
// The processor can also run in a "flat" configuration (Config.Flat) with
// the same ISA but no window sliding. That configuration is not part of the
// paper's hardware — it is the ablation the evaluation needs: a RISC without
// register windows whose compiler must save and restore registers around
// calls, exactly the comparison behind the paper's procedure-call argument.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"risc1/internal/asm"
	"risc1/internal/isa"
	"risc1/internal/mem"
	"risc1/internal/regwin"
	"risc1/internal/stats"
	"risc1/internal/timing"
)

// Software conventions baked into Reset and the compiler.
const (
	// HaltAddr is the magic address whose fetch halts the machine. Reset
	// points the initial return linkage here, so a `ret r25,#8` from the
	// entry procedure stops the simulation cleanly.
	HaltAddr = 0xFFFF0000

	// LinkReg receives the return address on calls (a LOCAL register, so
	// each windowed activation keeps its own).
	LinkReg = 25

	// SPReg is the data stack pointer, a global so all windows share it.
	SPReg = 9
)

// Config selects a processor configuration.
type Config struct {
	// Windows is the number of register windows (default
	// regwin.DefaultWindows = 8, the paper's configuration).
	Windows int
	// Flat disables register-window sliding: calls and returns keep CWP
	// fixed, as on a conventional flat-register machine.
	Flat bool
	// MemSize is RAM size in bytes (default 1 MiB).
	MemSize int
	// SaveStackBytes reserves the top of RAM for spilled windows
	// (default 16 KiB; 64 bytes per spilled window).
	SaveStackBytes int
	// SpillBatch is how many windows one overflow trap spills (default 1,
	// clamped to 4). Spilling extra windows amortizes trap overhead and
	// adds hysteresis against call-depth oscillation — the policy question
	// studied by Halbert & Kessler and measured by experiment E6b.
	SpillBatch int
	// MaxCycles aborts runaway programs (default 1e9).
	MaxCycles uint64
	// Engine selects the execution engine Run uses (default EngineAuto:
	// basic-block execution). Step is always the single-step oracle
	// regardless of this knob.
	Engine Engine
}

func (c Config) withDefaults() Config {
	if c.Windows == 0 {
		c.Windows = regwin.DefaultWindows
	}
	if c.MemSize == 0 {
		c.MemSize = 1 << 20
	}
	if c.SaveStackBytes == 0 {
		c.SaveStackBytes = 16 << 10
	}
	if c.SpillBatch < 1 {
		c.SpillBatch = 1
	}
	if c.SpillBatch > 4 {
		c.SpillBatch = 4
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 1e9
	}
	if c.Engine > EngineStep {
		// Defense in depth for a dropped ParseEngine error: an
		// out-of-range engine (EngineInvalid) degrades to auto rather
		// than selecting behavior by accident. Parse boundaries are
		// still required to reject the bad spelling outright.
		c.Engine = EngineAuto
	}
	return c
}

// Sentinel errors from Run and Step.
var (
	ErrMaxCycles     = errors.New("core: cycle limit exceeded")
	ErrSaveStackFull = errors.New("core: register save stack overflow")
	ErrHalted        = errors.New("core: machine is halted")
)

// RunError is a structured execution fault: beyond the wrapped cause it
// carries the faulting PC, the disassembly of the instruction there (when it
// decodes), the cycle count at the fault, and a snapshot of the visible
// registers of the current window — enough context to diagnose a failing
// guest program without re-running it under a tracer.
type RunError struct {
	PC     uint32
	Inst   string   // disassembly of the faulting instruction ("" if undecodable)
	Cycles uint64   // cycle count when the fault was raised
	CWP    int      // current window pointer at the fault
	Window []uint32 // visible registers r0..r31 of the current window
	Err    error
}

// Error is the pre-hardening name for RunError, kept for callers that match
// on *core.Error.
type Error = RunError

func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: at pc %#08x", e.PC)
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
		Cycles: c.stat.Cycles,
		CWP:    c.Regs.CWP(),
		Window: make([]uint32, isa.NumVisibleRegs),
		Err:    err,
	}
	for r := 0; r < isa.NumVisibleRegs; r++ {
		e.Window[r] = c.Regs.Get(uint8(r))
	}
	if word, ferr := c.Mem.Fetch32(pc); ferr == nil {
		if inst, derr := isa.Decode(word); derr == nil {
			e.Inst = inst.String()
		}
	}
	return e
}

// sharedCode is the per-image decoded-code state: the predecode lines, the
// compiled basic blocks and their heat. A single-core CPU owns
// one privately; an SMP machine shares one across all cores (see NewWorker)
// so code compiled by any core serves every core, and a write-watch
// invalidation by the watching core is a broadcast — all cores dispatch
// through the same tables. Mutation is safe because cores in an SMP machine
// interleave only at instruction boundaries on one goroutine.
type sharedCode struct {
	// Predecode cache: the image's code segment decoded once at Load.
	// Step dispatches from predec[(pc-codeOrg)>>2] and falls back to a
	// live fetch+decode outside the cached range (or where predecOK is
	// false: data words, undefined opcodes, or invalidated lines). A
	// write watch on the code range keeps self-modifying code correct.
	codeOrg  uint32
	predec   []isa.Inst
	predecOK []bool

	// Block cache: blocks[w] is the compiled basic block leading at code
	// word w (nil = not compiled yet, noBlock = cannot lead a block). The
	// write watch drops blocks overlapping a store alongside the predecode
	// lines.
	blocks []*block

	// heat[w] counts the block dispatches leading at word w: the heat
	// profile (HeatProfile, HotNGrams).
	heat []uint64

	// codeGen counts stores into the code range. A Retire hook that caches
	// anything derived from the retired instructions need only re-check
	// them when it has moved.
	codeGen uint64
}

// CPU is one RISC I processor with its memory.
type CPU struct {
	cfg  Config
	Mem  *mem.Memory
	Regs regwin.File

	pc, npc uint32 // delayed-branch PC pair
	lastPC  uint32 // previously executed instruction (GTLPC)
	flags   isa.Flags
	ie      bool // interrupts enabled
	halted  bool

	savePtr  uint32 // register-save stack, grows down from top of RAM
	saveBase uint32

	stat *stats.Stats
	// opCounts are the per-opcode counts (hot path) less the block runs
	// pending in runs; an unwind before the fold wraps and nets out there.
	opCounts  [128]uint64
	runs      []blockRuns // per leader word: this core's unfolded full block runs
	inDelay   bool        // next instruction occupies a delay slot
	callDepth int
	pendIRQ   []uint32 // pending interrupt vectors

	// Decoded-code state, shared across the cores of an SMP machine.
	*sharedCode

	// Retire, when non-nil, is called once per run of consecutively
	// retired instructions, after the run's effects: insts are the
	// instructions in execution order, at addresses pc, pc+4, ..., and
	// taken reports whether the run's control transfer (if it retired one)
	// was taken. Step reports each instruction as a run of one; the block
	// engine reports a whole block, the retired prefix of a block stopped
	// early (a fault, a store into its own code, a halt or MaxCycles), or a
	// prefix run: where a block is longer than what is left of the batch,
	// the leading body instructions that fit run as one run with no
	// transfer. An instruction that faults is never reported.
	// insts may alias the predecode cache: the hook must not keep or
	// modify it.
	Retire func(pc uint32, insts []isa.Inst, taken bool)
	// retireBuf holds the one instruction Step reports to Retire.
	retireBuf [1]isa.Inst

	// Progress, when non-nil, is called at RunContext batch boundaries —
	// every runBatch instructions, and once more when the run halts — with
	// the instruction and cycle counters retired so far. The block engine
	// surfaces at batch boundaries anyway, so the hook costs one call per
	// batch. It runs on the simulation goroutine; keep it cheap.
	Progress func(instructions, cycles uint64)
}

// New builds a CPU. Call Load before stepping.
func New(cfg Config) *CPU {
	cfg = cfg.withDefaults()
	c := &CPU{
		cfg:        cfg,
		Mem:        mem.New(cfg.MemSize),
		Regs:       *regwin.New(cfg.Windows),
		stat:       stats.New(),
		sharedCode: &sharedCode{},
	}
	c.reset()
	return c
}

func (c *CPU) reset() {
	c.Regs.Reset()
	c.stat = stats.New()
	c.opCounts = [128]uint64{}
	c.Mem.ResetCounters()
	c.flags = isa.Flags{}
	c.ie = true
	c.halted = false
	c.inDelay = false
	c.callDepth = 0
	c.pendIRQ = nil
	top := uint32(c.cfg.MemSize)
	c.savePtr = top
	c.saveBase = top - uint32(c.cfg.SaveStackBytes)
	// Data stack grows down from below the save area.
	c.Regs.Set(SPReg, c.saveBase&^7)
	// Entry linkage: returning from the entry procedure halts.
	c.Regs.Set(LinkReg, HaltAddr-8)
}

// Load places an assembled image in memory and resets the processor to its
// entry point.
func (c *CPU) Load(img *asm.Image) error {
	c.reset()
	if err := c.Mem.LoadProgram(img.Org, img.Bytes); err != nil {
		return err
	}
	c.predecode(img)
	c.pc = img.Entry
	c.npc = img.Entry + 4
	c.lastPC = img.Entry
	return nil
}

// predecode decodes the image's code segment once so Step can dispatch
// without re-fetching and re-decoding every executed instruction — the
// software analogue of the paper's fixed-format argument. The compiler
// marks where code ends with __data_start; images without the symbol are
// treated as all code (data words simply fail to decode and stay on the
// live-fetch path). The write watch invalidates overwritten lines.
func (c *CPU) predecode(img *asm.Image) {
	code := img.Bytes
	if ds, ok := img.Symbol("__data_start"); ok &&
		ds >= img.Org && ds <= img.Org+uint32(len(img.Bytes)) {
		code = img.Bytes[:ds-img.Org]
	}
	c.codeOrg = img.Org
	c.predec, c.predecOK = isa.DecodeBlock(code)
	c.blocks = make([]*block, len(c.predec))
	c.runs = make([]blockRuns, len(c.predec))
	c.heat = make([]uint64, len(c.predec))
	c.Mem.SetWriteWatch(img.Org, img.Org+uint32(len(code)), c.invalidateCode)
}

// invalidateCode drops the predecoded lines covered by a store into the
// code range; the next execution of those addresses re-fetches live.
func (c *CPU) invalidateCode(addr uint32, size int) {
	c.codeGen++
	lo, hi := addr, addr+uint32(size) // [lo, hi), hi > codeOrg per the watch
	if lo < c.codeOrg {
		lo = c.codeOrg
	}
	first := (lo - c.codeOrg) >> 2
	last := (hi - 1 - c.codeOrg) >> 2
	for i := first; i <= last && i < uint32(len(c.predecOK)); i++ {
		c.predecOK[i] = false
		// Rewritten words carry new code: their heat profile is stale.
		c.heat[i] = 0
	}
	if len(c.blocks) == 0 {
		return
	}
	// A compiled block caches every word it covers and is at most maxBlock
	// words long, so only leaders in the maxBlock-1 words before the store
	// can reach into it.
	loW := int(first) - (maxBlock - 1)
	if loW < 0 {
		loW = 0
	}
	for i := loW; i <= int(last) && i < len(c.blocks); i++ {
		b := c.blocks[i]
		if b == nil {
			continue
		}
		if uint32(i) >= first || i+b.nInst > int(first) {
			c.blocks[i] = nil
		}
	}
}

// Accessors.

// CodeSpan returns the predecoded code range: its origin and length in
// words. Stores into it bump CodeGen; the block engine runs only inside it.
func (c *CPU) CodeSpan() (org uint32, words int) { return c.codeOrg, len(c.predec) }

// CodeGen counts the stores into the code range so far.
func (c *CPU) CodeGen() uint64 { return c.codeGen }

// PC returns the address of the next instruction to execute.
func (c *CPU) PC() uint32 { return c.pc }

// Halted reports whether the machine has reached HaltAddr.
func (c *CPU) Halted() bool { return c.halted }

// Flags returns the current condition codes.
func (c *CPU) Flags() isa.Flags { return c.flags }

// Reg reads a visible register in the current window.
func (c *CPU) Reg(r uint8) uint32 { return c.Regs.Get(r) }

// SetReg writes a visible register in the current window (test harness use).
func (c *CPU) SetReg(r uint8, v uint32) { c.Regs.Set(r, v) }

// Console returns the program's console output so far.
func (c *CPU) Console() string { return c.Mem.Console() }

// CallDepth returns the current procedure nesting depth.
func (c *CPU) CallDepth() int { return c.callDepth }

// Stats returns the execution statistics, with memory traffic synced, the
// pending block runs folded in, and the instruction-mix maps materialized
// from the hot-path counters.
func (c *CPU) Stats() *stats.Stats {
	for i := range c.runs {
		c.foldRuns(&c.runs[i])
	}
	c.stat.DataReads = c.Mem.Reads
	c.stat.DataWrites = c.Mem.Writes
	// Every RISC I fetch is exactly one 4-byte word, so fetch traffic is
	// derived here rather than counted per step.
	c.stat.FetchBytes = c.stat.Instructions * isa.InstBytes
	c.stat.ByName = map[string]uint64{}
	c.stat.ByCategory = map[string]uint64{}
	for opv, n := range c.opCounts {
		if n == 0 {
			continue
		}
		op := isa.Op(opv)
		c.stat.ByName[op.Name()] = n
		c.stat.ByCategory[op.Cat().String()] += n
	}
	return c.stat
}

// Interrupt queues an external interrupt that will redirect execution to
// vector once interrupts are enabled and the processor is between
// instructions (never between a transfer and its delay slot).
func (c *CPU) Interrupt(vector uint32) {
	c.pendIRQ = append(c.pendIRQ, vector)
}

// runBatch is how many instructions RunContext executes between checks of
// the context: cancellation and deadlines are honored at batch boundaries,
// so a canceled run stops within one batch of the signal. At 4096, the
// check and Progress are rare costs.
const runBatch = 4096

// maxBlock caps the instructions one compiled block spans.
const maxBlock = 64

// Run steps the processor until it halts, faults, or exceeds MaxCycles.
func (c *CPU) Run() error { return c.RunContext(context.Background()) }

// RunContext is Run honoring ctx: cancellation or deadline expiry aborts the
// run at the next batch boundary with a RunError wrapping ctx.Err(). A batch
// is exactly runBatch instructions under either engine. The cycle limit
// itself is enforced exactly, per instruction.
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
		if _, err := c.runSlice(runBatch); err != nil {
			return err
		}
		if c.Progress != nil {
			c.Progress(c.stat.Instructions, c.stat.Cycles)
		}
	}
	return nil
}

// runSlice executes up to budget instructions with the configured engine
// and returns how many retired: budget, unless the machine halts or faults
// first. It is the one batch body behind both RunContext and the SMP
// scheduler's RunFor. A block longer than what is left of the budget runs
// the leading body ops that fit, so a slice retires the same instructions
// under every engine, which is what makes SMP interleavings
// engine-independent and a Cores=1 SMP run on 64-instruction quanta
// bit-identical to RunContext.
func (c *CPU) runSlice(budget int) (int, error) {
	if c.cfg.Engine == EngineStep {
		for i := 0; i < budget; i++ {
			if c.halted {
				return i, nil
			}
			if err := c.Step(); err != nil {
				return i, err
			}
		}
		return budget, nil
	}
	executed := 0
	for budget > 0 && !c.halted {
		if b, w, k := c.nextBlock(budget); b != nil {
			// A run stopped early (a fault, a halt, a store into its own
			// block) charges fewer than k: count what it charged, as Step
			// would.
			before := c.stat.Instructions
			err := c.runBlock(w, b, k)
			c.heat[w]++
			n := int(c.stat.Instructions - before)
			executed += n
			if err != nil {
				return executed, err
			}
			budget -= n
			continue
		}
		if err := c.Step(); err != nil {
			return executed, err
		}
		budget--
		executed++
	}
	return executed, nil
}

// Step executes one instruction. The MaxCycles budget is exact: a step that
// would begin at or beyond the limit does not execute, so both Run loops and
// external Step callers observe the abort at the same deterministic cycle.
func (c *CPU) Step() error {
	if c.halted {
		return ErrHalted
	}
	if c.stat.Cycles >= c.cfg.MaxCycles {
		return c.runError(c.pc, ErrMaxCycles)
	}
	// Deliver a pending interrupt at an interruptible boundary. Never
	// between a transfer and its delay slot: there the PC pair is
	// discontinuous and a single restart address could not represent it.
	// Outside a delay slot npc == pc+4 always holds, so the PC of the
	// not-yet-executed instruction fully captures the resume point; the
	// hardware latches it where CALLINT reads it (the "last PC" latch —
	// this is why the chip carries multiple PCs).
	if len(c.pendIRQ) > 0 && c.ie && !c.inDelay {
		vec := c.pendIRQ[0]
		c.pendIRQ = c.pendIRQ[1:]
		c.lastPC = c.pc
		c.pc, c.npc = vec, vec+4
	}
	execPC := c.pc
	if execPC == HaltAddr {
		c.halted = true
		return nil
	}

	// Fast path: dispatch from the predecode cache. A miss (PC outside
	// the cached code range, misaligned, or an invalidated/undecodable
	// line) falls back to a live fetch+decode, which also raises the
	// appropriate fetch or illegal-instruction fault.
	var inst *isa.Inst
	if off := execPC - c.codeOrg; off&3 == 0 && off>>2 < uint32(len(c.predec)) && c.predecOK[off>>2] {
		inst = &c.predec[off>>2]
	} else {
		word, err := c.Mem.Fetch32(execPC)
		if err != nil {
			return c.runError(execPC, err)
		}
		live, err := isa.Decode(word)
		if err != nil {
			return c.runError(execPC, err)
		}
		inst = &live
	}
	// Hot path: bare counters here; Stats() materializes the mix maps
	// and fetch traffic.
	c.stat.Instructions++
	c.opCounts[inst.Op&0x7F]++

	// Delay-slot accounting: this instruction sits in the slot of the
	// previous transfer.
	if c.inDelay {
		if isNop(inst) {
			c.stat.DelaySlotNops++
		} else {
			c.stat.DelaySlotUseful++
		}
		c.inDelay = false
	}

	target, transferred, err := c.execute(inst, execPC)
	if err != nil {
		return c.runError(execPC, err)
	}
	c.lastPC = execPC
	c.pc = c.npc
	if transferred {
		c.npc = target
		c.inDelay = true
		c.stat.Transfers++
		c.stat.TakenTransfers++
	} else {
		c.npc += isa.InstBytes
		if inst.Op.Transfers() && inst.Op != isa.OpCALLINT {
			// Untaken conditional jump still owns a delay slot.
			c.inDelay = true
			c.stat.Transfers++
		}
	}
	if c.Retire != nil {
		c.retireBuf[0] = *inst
		c.Retire(execPC, c.retireBuf[:], transferred)
	}
	return nil
}

// isNop recognizes effect-free instructions for delay-slot accounting: any
// non-flag-setting ALU instruction writing r0.
func isNop(i *isa.Inst) bool {
	return i.Op.Cat() == isa.CatALU && i.Rd == 0 && !i.SCC
}

// s2 evaluates the second operand.
func (c *CPU) s2(i *isa.Inst) uint32 {
	if i.Imm {
		return uint32(i.Imm13)
	}
	return c.Regs.Get(i.Rs2)
}

// execute performs one decoded instruction at pc. It returns the transfer
// target if the instruction redirects control. The ALU body lives inline
// here rather than behind a call: register operations are the bulk of every
// instruction mix (the paper's own motivation), so this is the interpreter's
// innermost dispatch.
func (c *CPU) execute(i *isa.Inst, pc uint32) (target uint32, transferred bool, err error) {
	switch i.Op.Cat() {
	case isa.CatALU:
		c.stat.Cycles += timing.RiscALUCycles
		a := c.Regs.Get(i.Rs1)
		var b uint32
		if i.Imm {
			b = uint32(i.Imm13)
		} else {
			b = c.Regs.Get(i.Rs2)
		}
		var r uint32
		f := c.flags
		switch i.Op {
		case isa.OpADD, isa.OpADDC:
			carry := uint64(0)
			if i.Op == isa.OpADDC && c.flags.C {
				carry = 1
			}
			full := uint64(a) + uint64(b) + carry
			r = uint32(full)
			f.C = full > 0xFFFFFFFF
			f.V = (a^b)&0x80000000 == 0 && (a^r)&0x80000000 != 0
		case isa.OpSUB, isa.OpSUBC, isa.OpSUBR, isa.OpSUBCR:
			x, y := a, b
			if i.Op == isa.OpSUBR || i.Op == isa.OpSUBCR {
				x, y = b, a
			}
			borrow := uint64(0)
			if (i.Op == isa.OpSUBC || i.Op == isa.OpSUBCR) && !c.flags.C {
				borrow = 1
			}
			full := uint64(x) - uint64(y) - borrow
			r = uint32(full)
			f.C = full <= 0xFFFFFFFF // carry = no borrow
			f.V = (x^y)&0x80000000 != 0 && (x^r)&0x80000000 != 0
		case isa.OpAND:
			r = a & b
			f.C, f.V = false, false
		case isa.OpOR:
			r = a | b
			f.C, f.V = false, false
		case isa.OpXOR:
			r = a ^ b
			f.C, f.V = false, false
		case isa.OpSLL:
			r = a << (b & 31)
			f.C, f.V = false, false
		case isa.OpSRL:
			r = a >> (b & 31)
			f.C, f.V = false, false
		case isa.OpSRA:
			r = uint32(int32(a) >> (b & 31))
			f.C, f.V = false, false
		}
		c.Regs.Set(i.Rd, r)
		if i.SCC {
			f.Z = r == 0
			f.N = int32(r) < 0
			c.flags = f
		}
		return 0, false, nil
	case isa.CatLoad:
		c.stat.Cycles += timing.RiscLoadCycles
		return 0, false, c.load(i)
	case isa.CatStore:
		c.stat.Cycles += timing.RiscStoreCycles
		return 0, false, c.store(i)
	case isa.CatControl:
		c.stat.Cycles += timing.RiscTransferCycles
		return c.control(i, pc)
	default:
		c.stat.Cycles += timing.RiscMiscCycles
		return c.misc(i, pc)
	}
}

func (c *CPU) load(i *isa.Inst) error {
	addr := c.Regs.Get(i.Rs1) + c.s2(i)
	var v uint32
	var err error
	switch i.Op {
	case isa.OpLDL:
		v, err = c.Mem.Load32(addr)
	case isa.OpLDSU:
		var h uint16
		h, err = c.Mem.Load16(addr)
		v = uint32(h)
	case isa.OpLDSS:
		var h uint16
		h, err = c.Mem.Load16(addr)
		v = uint32(int32(int16(h)))
	case isa.OpLDBU:
		var b uint8
		b, err = c.Mem.Load8(addr)
		v = uint32(b)
	case isa.OpLDBS:
		var b uint8
		b, err = c.Mem.Load8(addr)
		v = uint32(int32(int8(b)))
	}
	if err != nil {
		return err
	}
	c.Regs.Set(i.Rd, v)
	if i.SCC {
		c.flags.Z = v == 0
		c.flags.N = int32(v) < 0
		c.flags.C, c.flags.V = false, false
	}
	return nil
}

func (c *CPU) store(i *isa.Inst) error {
	addr := c.Regs.Get(i.Rs1) + c.s2(i)
	v := c.Regs.Get(i.Rd)
	switch i.Op {
	case isa.OpSTL:
		return c.Mem.Store32(addr, v)
	case isa.OpSTS:
		return c.Mem.Store16(addr, uint16(v))
	default:
		return c.Mem.Store8(addr, uint8(v))
	}
}

func (c *CPU) control(i *isa.Inst, pc uint32) (uint32, bool, error) {
	switch i.Op {
	case isa.OpJMP:
		if !i.Cond().Holds(c.flags) {
			return 0, false, nil
		}
		return c.Regs.Get(i.Rs1) + c.s2(i), true, nil
	case isa.OpJMPR:
		if !i.Cond().Holds(c.flags) {
			return 0, false, nil
		}
		return pc + uint32(i.Imm19), true, nil
	case isa.OpCALL, isa.OpCALLR:
		var target uint32
		if i.Op == isa.OpCALL {
			target = c.Regs.Get(i.Rs1) + c.s2(i)
		} else {
			target = pc + uint32(i.Imm19)
		}
		if err := c.enterWindow(); err != nil {
			return 0, false, err
		}
		c.Regs.Set(i.Rd, pc) // return linkage, in the callee's window
		c.stat.Calls++
		c.callDepth++
		c.stat.RecordDepth(c.callDepth)
		if c.callDepth > c.stat.MaxCallDepth {
			c.stat.MaxCallDepth = c.callDepth
		}
		return target, true, nil
	case isa.OpRET, isa.OpRETINT:
		target := c.Regs.Get(i.Rd) + c.s2(i)
		if target == HaltAddr {
			// Returning from the entry procedure: stop cleanly
			// without unwinding below window 0.
			c.halted = true
			return 0, false, nil
		}
		if err := c.exitWindow(); err != nil {
			return 0, false, err
		}
		c.stat.Returns++
		c.callDepth--
		if i.Op == isa.OpRETINT {
			c.ie = true
		}
		return target, true, nil
	case isa.OpCALLINT:
		// Trap/interrupt entry: slide to a fresh window, capture the
		// restart PC, disable further interrupts. Not a transfer.
		if err := c.enterWindow(); err != nil {
			return 0, false, err
		}
		c.Regs.Set(i.Rd, c.lastPC)
		c.ie = false
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("core: unhandled control op %v", i.Op)
}

// enterWindow slides the register window for a call, spilling the oldest
// window to the save stack if the hardware is full.
func (c *CPU) enterWindow() error {
	if c.cfg.Flat {
		return nil
	}
	if c.Regs.NeedSpill() {
		c.stat.WindowOverflow++
		c.stat.Cycles += timing.TrapCycles(1, 0, 0)
		// The trap handler spills at least one window; SpillBatch > 1
		// spills extras (while any remain) at the marginal cost of the
		// stores alone — the trap entry/exit overhead is already paid.
		for i := 0; i < c.cfg.SpillBatch; i++ {
			if i > 0 {
				if c.Regs.Spilled() >= c.Regs.CWP() {
					break // nothing older left to spill
				}
				c.stat.Cycles += timing.TrapCycles(0, 0, 1)
				c.stat.WindowBatchSpills++
			}
			if c.savePtr-regwin.SaveBytes < c.saveBase {
				return ErrSaveStackFull
			}
			save := c.Regs.SpillOldest()
			c.savePtr -= regwin.SaveBytes
			for k, v := range save {
				if err := c.Mem.Store32(c.savePtr+uint32(4*k), v); err != nil {
					return err
				}
			}
		}
	}
	c.Regs.PushWindow()
	return nil
}

// exitWindow slides back for a return, refilling a spilled window if needed.
func (c *CPU) exitWindow() error {
	if c.cfg.Flat {
		return nil
	}
	if c.Regs.NeedFill() {
		if c.Regs.Spilled() == 0 {
			return errors.New("core: return below the initial window")
		}
		var save regwin.WindowSave
		for k := range save {
			v, err := c.Mem.Load32(c.savePtr + uint32(4*k))
			if err != nil {
				return err
			}
			save[k] = v
		}
		c.savePtr += regwin.SaveBytes
		c.Regs.FillNewest(save)
		c.stat.WindowUnderflow++
		c.stat.Cycles += timing.TrapCycles(0, 1, 0)
	}
	c.Regs.PopWindow()
	return nil
}

// PSW layout for GETPSW/PUTPSW: C, V, N, Z in bits 0..3; interrupt-enable in
// bit 8; the current window pointer (read-only here: the simulator manages
// CWP through calls and returns) in bits 16..23.
const (
	pswC  = 1 << 0
	pswV  = 1 << 1
	pswN  = 1 << 2
	pswZ  = 1 << 3
	pswIE = 1 << 8
)

func (c *CPU) misc(i *isa.Inst, pc uint32) (uint32, bool, error) {
	switch i.Op {
	case isa.OpLDHI:
		c.Regs.Set(i.Rd, uint32(i.Imm19&0x7FFFF)<<13)
	case isa.OpGTLPC:
		c.Regs.Set(i.Rd, c.lastPC)
	case isa.OpGETPSW:
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
		c.Regs.Set(i.Rd, v)
	case isa.OpPUTPSW:
		v := c.Regs.Get(i.Rs1) + c.s2(i)
		c.flags = isa.Flags{
			C: v&pswC != 0, V: v&pswV != 0,
			N: v&pswN != 0, Z: v&pswZ != 0,
		}
		c.ie = v&pswIE != 0
	}
	return 0, false, nil
}
