package core

import (
	"risc1/internal/isa"
	"risc1/internal/regwin"
	"risc1/internal/stats"
)

// SMP support: the smp package builds an N-core machine out of one loaded
// leader CPU plus N-1 workers that share its memory and decoded-code state.
// Everything here keeps Step the architectural oracle — a worker is an
// ordinary CPU whose register file and save-stack region are private and
// whose code caches are the leader's.

// NewWorker returns a parked core sharing this CPU's memory and decoded-code
// caches (predecode lines and compiled blocks, including write-watch
// invalidation, which broadcasts through the shared tables). The worker has
// fresh registers, stats and control state, and is halted until Launch.
func (c *CPU) NewWorker() *CPU {
	w := &CPU{
		cfg:        c.cfg,
		Mem:        c.Mem,
		Regs:       *regwin.New(c.cfg.Windows),
		stat:       stats.New(),
		runs:       make([]blockRuns, len(c.runs)),
		sharedCode: c.sharedCode,
		ie:         true,
		halted:     true,
	}
	return w
}

// Partition assigns this core a private register-save stack region
// [saveLo, saveHi): window spills grow down from saveHi. The SMP machine
// carves one region per core out of the top of RAM; a single-core run never
// calls this, so its layout is untouched.
func (c *CPU) Partition(saveLo, saveHi uint32) {
	c.saveBase, c.savePtr = saveLo, saveHi
}

// Launch points a parked core at entry with stack pointer sp and a single
// word argument, as the scheduler's stand-in for a call: the argument lands
// where a windowed callee entered without a window slide reads it (the
// incoming-argument register), and the return linkage aims at HaltAddr so
// returning from entry halts the core cleanly — exactly how the main core's
// entry procedure stops. Stats accumulate across launches of the same core.
func (c *CPU) Launch(entry, sp, arg uint32) {
	c.pc, c.npc, c.lastPC = entry, entry+4, entry
	c.flags = isa.Flags{}
	c.ie = true
	c.halted = false
	c.inDelay = false
	c.callDepth = 0
	c.pendIRQ = nil
	c.Regs.Set(SPReg, sp&^7)
	c.Regs.Set(LinkReg, HaltAddr-8)
	c.Regs.Set(workerArgReg, arg)
}

// workerArgReg is where Launch deposits the worker's argument: the windowed
// convention's incoming-argument register (HIGH r26 of the entry window).
const workerArgReg = 26

// RunFor executes up to budget instructions — one scheduling quantum — and
// returns how many retired: all of them, unless the core halts or faults
// first (the caller tells the two apart via Halted and the error). Every
// engine retires the same instructions in a quantum, so driving a core
// with RunFor until it halts retires the architectural state sequence
// RunContext produces, whatever the quantum and the engine.
func (c *CPU) RunFor(budget int) (int, error) { return c.runSlice(budget) }

// Instructions returns the instructions retired so far (cheap accessor for
// schedulers; Stats materializes the full picture).
func (c *CPU) Instructions() uint64 { return c.stat.Instructions }

// Cycles returns the simulated cycles consumed so far.
func (c *CPU) Cycles() uint64 { return c.stat.Cycles }
