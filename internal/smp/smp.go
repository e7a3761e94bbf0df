// Package smp simulates a shared-memory multiprocessor of RISC I cores: N
// windowed cores executing one program image against a single mem image,
// scheduled round-robin in fixed instruction quanta on one goroutine.
//
// Determinism is the organizing principle. Slicing each core's execution
// into quanta and interleaving the slices round-robin yields one global
// instruction order, the same on every run and under every engine: a
// quantum retires exactly its instructions whether they step one at a time
// or run as compiled blocks (a block longer than what is left of the
// quantum runs only the body ops that fit). Atomicity of the test-and-set
// lock page (mem.LockBase) falls out of the slicing: cores never interleave
// mid-instruction.
//
// The interconnect cost model is deliberately simple, in the spirit of the
// paper's memory-traffic accounting (E5): every core has a private
// instruction path (the shared predecode cache standing in for a per-core
// instruction cache), but data accesses arbitrate for one shared port.
// Within a scheduling round where m > 1 cores are active, each active core
// is charged one arbitration cycle per data word the *other* active cores
// moved. Contention cycles are tracked beside the architectural cycle
// counters — never added to them — so a core's stats stay bit-identical to a
// single-core run of the same instruction stream; the machine's elapsed time
// is max over cores of (cycles + contention).
package smp

import (
	"context"
	"errors"
	"fmt"

	"risc1/internal/asm"
	"risc1/internal/core"
)

// Limits and defaults.
const (
	// MaxCores bounds a machine: join handles live in a 16-word device
	// page, and the experiments stop at 8.
	MaxCores = 16

	// DefaultQuantum is the default scheduling quantum in instructions.
	// Every SMP interleaving, and so every multi-core result, is pinned
	// to it; it is not the single-core run batch (core's 4096).
	DefaultQuantum = 64

	// DefaultWorkerStackBytes is each worker core's private data stack.
	DefaultWorkerStackBytes = 64 << 10
)

// Typed configuration errors, mirroring the core.EngineInvalid pattern:
// parse/API boundaries reject bad values outright rather than coercing.
var (
	// ErrBadCores rejects a core count outside [1, MaxCores].
	ErrBadCores = errors.New("smp: cores must be between 1 and 16")
	// ErrWindowedOnly rejects a multi-core machine on a non-windowed
	// target: the spawn/join runtime is compiled for register windows.
	ErrWindowedOnly = errors.New("smp: multi-core requires the windowed risc target")
)

// ValidCores reports whether n is a legal core count.
func ValidCores(n int) bool { return n >= 1 && n <= MaxCores }

// Config describes an SMP machine.
type Config struct {
	// Cores is the number of cores N (1..MaxCores).
	Cores int
	// Quantum is the instructions each core runs per scheduling round
	// (default DefaultQuantum).
	Quantum int
	// WorkerStackBytes sizes each worker core's private data stack
	// (default 64 KiB).
	WorkerStackBytes int
	// Core configures every core (engine, windows, MaxCycles...). Flat
	// must be false when Cores > 1. When Core.MemSize is zero and
	// Cores > 1, memory is sized so core 0 keeps the same stack and heap
	// room a single-core machine would have.
	Core core.Config
	// Race enables the dynamic race detector (see racedet.go). It forces
	// the step engine so every access is attributed to its exact PC. The
	// interleaving checked is the one every engine runs (see the package
	// doc).
	Race bool
}

// CoreStats is one core's share of a run.
type CoreStats struct {
	Instructions     uint64 `json:"instructions"`
	Cycles           uint64 `json:"cycles"`
	ContentionCycles uint64 `json:"contention_cycles"`
	DataReadBytes    uint64 `json:"data_read_bytes"`
	DataWriteBytes   uint64 `json:"data_write_bytes"`
	Launches         uint64 `json:"launches"` // times this core was (re)launched
}

// CoreError is a fault attributed to one core of an SMP run.
type CoreError struct {
	Core int
	Err  error
}

func (e *CoreError) Error() string { return fmt.Sprintf("smp: core %d: %v", e.Core, e.Err) }
func (e *CoreError) Unwrap() error { return e.Err }

// Machine is an N-core shared-memory RISC I multiprocessor.
type Machine struct {
	cfg   Config
	cores []*core.CPU
	views []*coreView

	launches   []uint64
	contention []uint64
	readBytes  []uint64
	writeBytes []uint64
	rounds     uint64
	spawns     uint64
	spawnFails uint64

	// img and race back the dynamic race detector when Config.Race is set;
	// the image's line table maps racy PCs back to source lines.
	img  *asm.Image
	race *raceDetector

	// Progress, when non-nil, is called after every scheduling round with
	// the machine-wide instruction total and makespan cycles so far. It
	// runs on the scheduler goroutine; keep it cheap.
	Progress func(instructions, cycles uint64)
}

// coreView is the per-core face the mem SMP control page talks to. Spawn
// state is per-core because a scheduling quantum may split the store-arg/
// store-fn/load-handle sequence across rounds.
type coreView struct {
	m         *Machine
	id        uint32
	spawnArg  uint32
	lastSpawn uint32
}

func (v *coreView) CoreID() uint32      { return v.id }
func (v *coreView) NumCores() uint32    { return uint32(len(v.m.cores)) }
func (v *coreView) SpawnArg(arg uint32) { v.spawnArg = arg }
func (v *coreView) LastSpawn() uint32   { return v.lastSpawn }

func (v *coreView) Spawn(fn uint32) {
	v.lastSpawn = v.m.spawn(fn, v.spawnArg, int(v.id))
}

func (v *coreView) Running(h uint32) uint32 {
	if int(h) >= len(v.m.cores) {
		return 0
	}
	if v.m.cores[h].Halted() {
		return 0
	}
	return 1
}

// New builds an N-core machine executing img. The image loads once into the
// shared memory through core 0; workers share core 0's decoded-code caches,
// so code compiled by any core (and write-watch invalidation) is visible to
// all of them.
func New(img *asm.Image, cfg Config) (*Machine, error) {
	if !ValidCores(cfg.Cores) {
		return nil, ErrBadCores
	}
	if cfg.Cores > 1 && cfg.Core.Flat {
		return nil, ErrWindowedOnly
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.WorkerStackBytes <= 0 {
		cfg.WorkerStackBytes = DefaultWorkerStackBytes
	}
	if cfg.Race {
		cfg.Core.Engine = core.EngineStep
	}
	n := cfg.Cores
	saveBytes := cfg.Core.SaveStackBytes
	if saveBytes == 0 {
		saveBytes = 16 << 10 // core.Config's own default
	}
	if n > 1 && cfg.Core.MemSize == 0 {
		// Give core 0 the stack/heap room a single-core machine would
		// have after the extra save regions and worker stacks are carved.
		cfg.Core.MemSize = 1<<20 + (n-1)*(saveBytes+cfg.WorkerStackBytes)
	}

	leader := core.New(cfg.Core)
	if err := leader.Load(img); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:        cfg,
		cores:      make([]*core.CPU, n),
		views:      make([]*coreView, n),
		launches:   make([]uint64, n),
		contention: make([]uint64, n),
		readBytes:  make([]uint64, n),
		writeBytes: make([]uint64, n),
	}
	m.cores[0] = leader
	for i := range m.views {
		m.views[i] = &coreView{m: m, id: uint32(i), lastSpawn: 0xFFFF_FFFF}
	}
	m.launches[0] = 1
	if cfg.Race {
		m.img = img
		m.race = newRaceDetector(m)
	}
	if n == 1 {
		// Single core: identical layout and (nil-controller) device
		// behavior to a plain core.RunContext run, by construction.
		return m, nil
	}

	// Memory layout, carved from the top of RAM down:
	//   [M-N*S, M)          save-stack regions, core 0 topmost
	//   below, N-1 stacks   worker data stacks, worker 1 topmost
	//   core 0's stack      grows down from below the worker stacks
	top := uint32(leader.Mem.Size())
	s, t := uint32(saveBytes), uint32(cfg.WorkerStackBytes)
	saveFloor := top - uint32(n)*s
	need := uint64(n)*uint64(s) + uint64(n-1)*uint64(t) + 64<<10
	if uint64(leader.Mem.Size()) < need {
		return nil, fmt.Errorf("smp: %d cores need at least %d bytes of memory, have %d",
			n, need, leader.Mem.Size())
	}
	for k := 1; k < n; k++ {
		w := leader.NewWorker()
		w.Partition(top-uint32(k+1)*s, top-uint32(k)*s)
		m.cores[k] = w
	}
	// Core 0 keeps its default save region [M-S, M); its data stack moves
	// below the worker stacks.
	leader.SetReg(core.SPReg, (saveFloor-uint32(n-1)*t)&^7)
	return m, nil
}

// workerSP is worker k's data-stack top.
func (m *Machine) workerSP(k int) uint32 {
	top := uint32(m.cores[0].Mem.Size())
	s := uint32(m.cfg.Core.SaveStackBytes)
	if s == 0 {
		s = 16 << 10
	}
	saveFloor := top - uint32(len(m.cores))*s
	return (saveFloor - uint32(k-1)*uint32(m.cfg.WorkerStackBytes)) &^ 7
}

// spawn launches fn on a parked worker core, returning its index as the
// join handle, or 0xFFFF_FFFF when every worker is busy (the Cm runtime
// then runs fn inline on the calling core).
func (m *Machine) spawn(fn, arg uint32, caller int) uint32 {
	for k := 1; k < len(m.cores); k++ {
		if k == caller || !m.cores[k].Halted() {
			continue
		}
		m.cores[k].Launch(fn, m.workerSP(k), arg)
		// The worker inherits the spawning core's global registers
		// (r1..r8): the ABI anchors established by the startup stub — the
		// Cm global pointer in particular — live only on the boot core
		// otherwise. r9 is the stack pointer, which Launch just aimed at
		// the worker's own stack.
		for r := uint8(1); r < core.SPReg; r++ {
			m.cores[k].Regs.Set(r, m.cores[caller].Regs.Get(r))
		}
		m.launches[k]++
		m.spawns++
		if m.race != nil {
			m.race.onSpawn(caller, k)
		}
		return uint32(k)
	}
	m.spawnFails++
	return 0xFFFF_FFFF
}

// Run executes the machine until core 0 halts, any core faults, or ctx is
// canceled. Workers still running when core 0 halts are abandoned, exactly
// as a real kernel's exit abandons its threads; a program that wants their
// results joins them first. Faults are returned as a *CoreError naming the
// faulting core and wrapping its *core.RunError.
func (m *Machine) Run(ctx context.Context) error {
	mmem := m.cores[0].Mem
	done := ctx.Done()
	if m.race != nil {
		mmem.SetObserver(m.race)
		defer mmem.SetObserver(nil)
	}
	roundData := make([]uint64, len(m.cores))
	for !m.cores[0].Halted() {
		if done != nil {
			select {
			case <-done:
				return &CoreError{Core: 0, Err: ctx.Err()}
			default:
			}
		}
		m.rounds++
		touched := 0
		for i, c := range m.cores {
			roundData[i] = 0
			if c.Halted() {
				continue
			}
			if len(m.cores) > 1 {
				mmem.SetSMP(m.views[i])
			}
			if m.race != nil {
				m.race.cur = i
			}
			r0, w0 := mmem.Reads, mmem.Writes
			_, err := c.RunFor(m.cfg.Quantum)
			dr, dw := mmem.Reads-r0, mmem.Writes-w0
			m.readBytes[i] += dr
			m.writeBytes[i] += dw
			roundData[i] = (dr + dw) / 4
			if roundData[i] > 0 {
				touched++
			}
			if err != nil {
				if len(m.cores) > 1 {
					mmem.SetSMP(nil)
				}
				return &CoreError{Core: i, Err: err}
			}
		}
		if touched > 1 {
			// Arbitration: when more than one core touched memory this
			// round, each of them waits one cycle per data word the other
			// touching cores moved through the shared port.
			var total uint64
			for _, d := range roundData {
				total += d
			}
			for i, d := range roundData {
				if d > 0 {
					m.contention[i] += total - d
				}
			}
		}
		if m.Progress != nil {
			var instrs uint64
			for _, c := range m.cores {
				instrs += c.Instructions()
			}
			m.Progress(instrs, m.Elapsed())
		}
	}
	if len(m.cores) > 1 {
		mmem.SetSMP(nil)
	}
	return nil
}

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// Core exposes core i for inspection (tests, stats).
func (m *Machine) Core(i int) *core.CPU { return m.cores[i] }

// Console returns the shared console output.
func (m *Machine) Console() string { return m.cores[0].Console() }

// Rounds returns how many scheduling rounds the run took.
func (m *Machine) Rounds() uint64 { return m.rounds }

// Spawns returns successful worker launches; SpawnFails the spawns that
// found no parked worker and fell back to an inline call.
func (m *Machine) Spawns() uint64     { return m.spawns }
func (m *Machine) SpawnFails() uint64 { return m.spawnFails }

// Races returns the data races the detector recorded, in discovery order
// (at most one per word, capped at raceLimit). Empty without Config.Race.
func (m *Machine) Races() []Race {
	if m.race == nil {
		return nil
	}
	return m.race.races
}

// CoreStats returns each core's share of the run. On a multi-core machine
// the per-core data-traffic attribution replaces the shared counters a lone
// CPU would report; a single-core machine's stats are untouched.
func (m *Machine) CoreStats() []CoreStats {
	out := make([]CoreStats, len(m.cores))
	for i, c := range m.cores {
		out[i] = CoreStats{
			Instructions:     c.Instructions(),
			Cycles:           c.Cycles(),
			ContentionCycles: m.contention[i],
			DataReadBytes:    m.readBytes[i],
			DataWriteBytes:   m.writeBytes[i],
			Launches:         m.launches[i],
		}
	}
	return out
}

// ContentionCycles sums the arbitration cycles charged across cores.
func (m *Machine) ContentionCycles() uint64 {
	var total uint64
	for _, c := range m.contention {
		total += c
	}
	return total
}

// Elapsed is the machine's wall-clock in cycles: the slowest core's
// architectural cycles plus its arbitration charges.
func (m *Machine) Elapsed() uint64 {
	var max uint64
	for i, c := range m.cores {
		if e := c.Cycles() + m.contention[i]; e > max {
			max = e
		}
	}
	return max
}
