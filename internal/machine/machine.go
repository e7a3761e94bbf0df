// Package machine is the one place that builds and runs a simulator for a
// compiled image: it picks the CX, pipelined, single-core or shared-memory
// machine for the target, loads the image, arms the fault plan and hooks,
// runs it under a context, copies its counters into a Result and returns
// its RAM to the free list.
package machine

import (
	"context"
	"time"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/core"
	"risc1/internal/mem"
	"risc1/internal/pipeline"
	"risc1/internal/smp"
	"risc1/internal/stats"
	"risc1/internal/timing"
)

// Image is a loadable program: RISC for the RISC targets, CX for CISC.
type Image struct {
	RISC *asm.Image
	CX   *cisc.Image
}

// Config selects and sizes the machine for one run.
type Config struct {
	Target cc.Target
	// Windows, SpillBatch, MaxCycles and Engine set the core.Config fields
	// of the same names on every RISC I core; the CX machine takes only
	// MaxCycles, and the pipelined target always runs the block engine.
	Windows    int
	SpillBatch int
	MaxCycles  uint64
	Engine     core.Engine
	Policy     pipeline.Policy // the pipelined target's
	// Cores above one, or Race (the dynamic race detector), run the
	// windowed target on the shared-memory machine.
	Cores int
	Race  bool
	// Profile fills Result.Heat and Result.NGrams.
	Profile bool
	// Fault, when non-nil, injects memory failures; each run arms its own
	// copy, so one plan can serve concurrent runs.
	Fault *mem.FaultPlan
	// Console receives each console rendering as the guest emits it, and
	// Progress the retired instruction and cycle counts at run-batch
	// boundaries: every 4096 instructions on one core, every scheduling
	// round of 64-instruction quanta on the SMP machine. Both run on the
	// simulation goroutine.
	Console  func(chunk string)
	Progress func(instructions, cycles uint64)
}

// Result is what one run reports: copies of the machine's counters, never
// the machine itself.
type Result struct {
	// Stats are the architectural statistics. On the SMP machine every
	// counter sums the cores, MaxCallDepth is the deepest core's, and
	// Stats.Cycles is core 0's.
	Stats *stats.Stats
	// Cycles is the headline count: measured on the pipelined target, the
	// makespan on the SMP machine, Stats.Cycles otherwise.
	Cycles           uint64
	Console          string
	ConsoleTruncated bool
	// Trace is the trace tier's counters, summed over the cores on the SMP
	// machine. HotBlocks is how many block leaders reached the
	// trace-compile threshold in core 0's heat table, and Heat and NGrams
	// (under Config.Profile) that table and its top opcode 2- and 3-grams;
	// the SMP machine's cores share one heat table, so it counts them all
	// and is not summed.
	Trace     core.TraceStats
	HotBlocks int
	Heat      []core.HeatEntry
	NGrams    []core.NGram
	// Pipeline is set on the pipelined target; SMP and Races (under
	// Config.Race) on the shared-memory machine.
	Pipeline *pipeline.Result
	SMP      *SMP
	Races    []smp.Race

	cycleNS uint64 // the machine's clock period
}

// SMP is the shared-memory machine's breakdown of a run.
type SMP struct {
	Cores int `json:"cores"`
	// ElapsedCycles is the makespan under the interconnect cost model.
	ElapsedCycles uint64 `json:"elapsed_cycles"`
	// ContentionCycles totals the arbitration penalty charged across cores
	// for rounds where more than one core touched memory.
	ContentionCycles uint64 `json:"contention_cycles"`
	// Rounds counts scheduler rounds; Spawns counts workers launched and
	// SpawnFails the spawn requests that fell back to an inline call.
	Rounds     uint64          `json:"rounds"`
	Spawns     uint64          `json:"spawns"`
	SpawnFails uint64          `json:"spawn_fails"`
	PerCore    []smp.CoreStats `json:"per_core"`
}

// Seconds is the headline cycle count at the machine's clock.
func (r *Result) Seconds() float64 { return float64(r.Cycles) * float64(r.cycleNS) * 1e-9 }

// Time is Seconds as a Duration.
func (r *Result) Time() time.Duration { return time.Duration(r.Cycles) * time.Duration(r.cycleNS) }

// Run runs img to completion on a fresh machine for cfg.Target with zeroed
// memory. A core count outside 0..smp.MaxCores returns smp.ErrBadCores, and
// a multi-core or race run on any target but RISCWindowed
// smp.ErrWindowedOnly.
func Run(ctx context.Context, img Image, cfg Config) (*Result, error) {
	if cfg.Cores < 0 || cfg.Cores > smp.MaxCores {
		return nil, smp.ErrBadCores
	}
	shared := cfg.Cores > 1 || cfg.Race
	if shared && cfg.Target != cc.RISCWindowed {
		return nil, smp.ErrWindowedOnly
	}
	// Every RISC I core reserves 64 KiB at the top of RAM for spilled
	// windows (1,024 of them), four times core's default.
	coreCfg := core.Config{
		Flat:           cfg.Target == cc.RISCFlat,
		Windows:        cfg.Windows,
		SpillBatch:     cfg.SpillBatch,
		SaveStackBytes: 64 << 10,
		MaxCycles:      cfg.MaxCycles,
		Engine:         cfg.Engine,
	}
	var (
		m        *mem.Memory
		load     func() error
		progress *func(instructions, cycles uint64)
		run      func(context.Context) error
		result   func() *Result
	)
	switch {
	case shared:
		sm, err := smp.New(img.RISC, smp.Config{Cores: max(cfg.Cores, 1), Race: cfg.Race, Core: coreCfg})
		if err != nil {
			return nil, err
		}
		// smp.New loaded the image; every core shares core 0's memory.
		m, load, progress, run = sm.Core(0).Mem, func() error { return nil }, &sm.Progress, sm.Run
		result = func() *Result { return fromSMP(sm, cfg.Profile) }
	case cfg.Target == cc.CISC:
		x := cisc.New(cisc.Config{MaxCycles: cfg.MaxCycles})
		m, load, progress, run = x.Mem, func() error { return x.Load(img.CX) }, &x.Progress, x.RunContext
		result = func() *Result {
			s := x.Stats()
			return &Result{Stats: s, Cycles: s.Cycles, Console: x.Console(),
				ConsoleTruncated: x.Mem.ConsoleTruncated(), cycleNS: timing.CXMicrocycleNS}
		}
	case cfg.Target == cc.RISCPipelined:
		p := pipeline.New(coreCfg, cfg.Policy)
		c := p.CPU()
		m, load, progress, run = c.Mem, func() error { return p.Load(img.RISC) }, &c.Progress, p.RunContext
		result = func() *Result {
			r, pr := FromCore(c, cfg.Profile), p.Result()
			r.Pipeline, r.Cycles = &pr, pr.Cycles
			return r
		}
	default:
		c := core.New(coreCfg)
		m, load, progress, run = c.Mem, func() error { return c.Load(img.RISC) }, &c.Progress, c.RunContext
		result = func() *Result { return FromCore(c, cfg.Profile) }
	}
	defer m.Release()
	if err := load(); err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		p := *cfg.Fault
		m.SetFaultPlan(&p)
	}
	m.SetConsoleSink(cfg.Console)
	*progress = cfg.Progress
	if err := run(ctx); err != nil {
		return nil, err
	}
	return result(), nil
}

// fromSMP sums every core's Stats, with the data traffic each core was
// attributed, and trace counters into core 0's Result, as the Result field
// comments describe, and adds the machine's breakdown.
func fromSMP(m *smp.Machine, profile bool) *Result {
	r := FromCore(m.Core(0), profile)
	sum := stats.New()
	var trace core.TraceStats
	perCore := m.CoreStats()
	for i, cs := range perCore {
		c := m.Core(i)
		s := *c.Stats()
		s.DataReads, s.DataWrites = cs.DataReadBytes, cs.DataWriteBytes
		sum.Add(&s)
		t := c.TraceStats()
		trace.Compiled += t.Compiled
		trace.SideExits += t.SideExits
		trace.Invalidations += t.Invalidations
		trace.Instructions += t.Instructions
	}
	sum.Cycles = r.Stats.Cycles
	r.Stats, r.Trace = sum, trace
	r.SMP = &SMP{
		Cores:            m.Cores(),
		ElapsedCycles:    m.Elapsed(),
		ContentionCycles: m.ContentionCycles(),
		Rounds:           m.Rounds(),
		Spawns:           m.Spawns(),
		SpawnFails:       m.SpawnFails(),
		PerCore:          perCore,
	}
	r.Cycles = r.SMP.ElapsedCycles
	r.Races = m.Races()
	return r
}

// FromCore reads a RISC I core's counters into a Result: for the machines
// Run builds, and for a core driven by hand.
func FromCore(c *core.CPU, profile bool) *Result {
	s := c.Stats()
	r := &Result{
		Stats:            s,
		Cycles:           s.Cycles,
		Console:          c.Console(),
		ConsoleTruncated: c.Mem.ConsoleTruncated(),
		Trace:            c.TraceStats(),
		cycleNS:          timing.RiscCycleNS,
	}
	heat := c.HeatProfile()
	for _, h := range heat {
		if h.Count >= c.HotThreshold() {
			r.HotBlocks++
		}
	}
	if profile {
		r.Heat = heat
		r.NGrams = append(c.HotNGrams(2, 8), c.HotNGrams(3, 8)...)
	}
	return r
}
