// Package machine is the one place that builds and runs a simulator for a
// compiled image: it picks the CX, pipelined, single-core or shared-memory
// machine for the target, loads the image, arms the fault plan and hooks,
// runs it under a context, reports its counters in one Info (the run report
// every surface renders) and returns its RAM to the free list.
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
	// MaxCycles.
	Windows    int
	SpillBatch int
	MaxCycles  uint64
	Engine     core.Engine
	Policy     pipeline.Policy // the pipelined target's
	// Cores above one, or Race (the dynamic race detector), run the
	// windowed target on the shared-memory machine.
	Cores int
	Race  bool
	// Profile fills Info.Profile and Info.NGrams.
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

// Info is one run's report: the counters every surface renders (risc1's
// RunInfo is this type). Run and FromCore fill every field.
type Info struct {
	Console string
	// ConsoleTruncated reports that the program printed more than the
	// console device retains (mem.DefaultConsoleLimit) and the excess was
	// dropped.
	ConsoleTruncated bool
	Instructions     uint64
	Cycles           uint64 // processor cycles (RISC) or microcycles (CX)
	Time             time.Duration
	// CodeBytes is the image size: code plus initialized data.
	CodeBytes int

	Calls            uint64
	MaxCallDepth     int
	WindowOverflows  uint64
	WindowUnderflows uint64
	DataReadBytes    uint64
	DataWriteBytes   uint64
	FetchBytes       uint64

	// Profile and NGrams carry the block engine's heat table and the
	// measured dynamic opcode n-grams; both are filled only when
	// Config.Profile is set.
	Profile []core.HeatEntry
	NGrams  []core.NGram

	// Pipeline carries the cycle-accurate timing breakdown for runs on
	// the RISCPipelined target; nil for every other target. For those
	// runs Cycles and Time above are the measured pipeline values, and
	// Pipeline.RefCycles preserves the single-cycle model's count.
	Pipeline *Pipeline

	// SMP carries the shared-memory machine's breakdown for runs with
	// Config.Cores > 1; nil otherwise. For those runs the counters
	// above sum every core (MaxCallDepth is the deepest core's), the
	// profile is the heat table the cores share, and Cycles is the
	// machine's makespan (max over cores of executed plus contention
	// cycles).
	SMP *SMP

	// Races holds the data races the dynamic detector observed, filled
	// only when Config.Race is set. Empty means the execution was
	// race-free under the hybrid lockset/happens-before test; each entry
	// records the two unsynchronized accesses with core, PC and source
	// line. Reporting is capped per run, one race per shared word.
	Races []smp.Race
}

// Pipeline is the cycle-accurate pipeline's timing breakdown.
type Pipeline struct {
	Policy string  `json:"policy"`
	Cycles uint64  `json:"cycles"`
	CPI    float64 `json:"cpi"`
	// RefCycles is what the single-cycle cost model charges the same
	// execution — the baseline the pipeline is measured against.
	RefCycles          uint64  `json:"ref_cycles"`
	LoadUseStallCycles uint64  `json:"load_use_stall_cycles"`
	WindowStallCycles  uint64  `json:"window_stall_cycles"`
	MemPortStallCycles uint64  `json:"mem_port_stall_cycles"`
	FlushBubbleCycles  uint64  `json:"flush_bubble_cycles"`
	ForwardsEXMEM      uint64  `json:"forwards_ex_mem"`
	ForwardsMEMWB      uint64  `json:"forwards_mem_wb"`
	DelaySlots         uint64  `json:"delay_slots"`
	DelaySlotsFilled   uint64  `json:"delay_slots_filled"`
	FillRatePct        float64 `json:"fill_rate_pct"`
}

// Result is one run's report and what the report flattens: copies of the
// machine's counters, never the machine itself.
type Result struct {
	Info
	// Stats are the architectural statistics. On the SMP machine every
	// counter sums the cores, MaxCallDepth is the deepest core's, and
	// Stats.Cycles is core 0's.
	Stats *stats.Stats
	// Timing is the pipelined target's full timing result, which
	// Info.Pipeline summarizes; nil on every other target.
	Timing *pipeline.Result
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
		cycleNS  uint64 = timing.RiscCycleNS
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
			return &Result{Stats: s, Info: Info{Console: x.Console(),
				ConsoleTruncated: x.Mem.ConsoleTruncated(), Cycles: s.Cycles}}
		}
		cycleNS = timing.CXMicrocycleNS
	case cfg.Target == cc.RISCPipelined:
		p := pipeline.New(coreCfg, cfg.Policy)
		c := p.CPU()
		m, load, progress, run = c.Mem, func() error { return p.Load(img.RISC) }, &c.Progress, p.RunContext
		result = func() *Result {
			r, pr := fromCore(c, cfg.Profile), p.Result()
			r.Timing, r.Cycles = &pr, pr.Cycles
			r.Pipeline = &Pipeline{
				Policy:             pr.Policy.String(),
				Cycles:             pr.Cycles,
				CPI:                pr.CPI(),
				RefCycles:          r.Stats.Cycles,
				LoadUseStallCycles: pr.LoadUseStallCycles,
				WindowStallCycles:  pr.WindowStallCycles,
				MemPortStallCycles: pr.MemPortStallCycles,
				FlushBubbleCycles:  pr.FlushBubbleCycles,
				ForwardsEXMEM:      pr.ForwardsEXMEM,
				ForwardsMEMWB:      pr.ForwardsMEMWB,
				DelaySlots:         pr.DelaySlots,
				DelaySlotsFilled:   pr.DelaySlotsFilled,
				FillRatePct:        100 * pr.FillRate(),
			}
			return r
		}
	default:
		c := core.New(coreCfg)
		m, load, progress, run = c.Mem, func() error { return c.Load(img.RISC) }, &c.Progress, c.RunContext
		result = func() *Result { return fromCore(c, cfg.Profile) }
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
	r := result()
	r.flatten(img.size(), cycleNS, cfg.Profile)
	return r, nil
}

// size is the image's bytes: code plus initialized data.
func (img Image) size() int {
	if img.CX != nil {
		return img.CX.Size()
	}
	return len(img.RISC.Bytes)
}

// fromSMP sums every core's Stats, with the data traffic each core was
// attributed, into core 0's Result, as the Result and Info field comments
// describe, and adds the machine's breakdown.
func fromSMP(m *smp.Machine, profile bool) *Result {
	r := fromCore(m.Core(0), profile)
	sum := stats.New()
	perCore := m.CoreStats()
	for i, cs := range perCore {
		s := *m.Core(i).Stats()
		s.DataReads, s.DataWrites = cs.DataReadBytes, cs.DataWriteBytes
		sum.Add(&s)
	}
	sum.Cycles = r.Stats.Cycles
	r.Stats, r.Cycles, r.Races = sum, m.Elapsed(), m.Races()
	// A race run on one core rides this machine too, but the report's
	// breakdown is for multi-core runs only.
	if m.Cores() > 1 {
		r.SMP = &SMP{
			Cores:            m.Cores(),
			ElapsedCycles:    m.Elapsed(),
			ContentionCycles: m.ContentionCycles(),
			Rounds:           m.Rounds(),
			Spawns:           m.Spawns(),
			SpawnFails:       m.SpawnFails(),
			PerCore:          perCore,
		}
	}
	return r
}

// FromCore reports a RISC I core driven by hand, with its heat profile and
// n-grams; codeBytes is the size of the image it runs.
func FromCore(c *core.CPU, codeBytes int) *Result {
	r := fromCore(c, true)
	r.flatten(codeBytes, timing.RiscCycleNS, true)
	return r
}

// fromCore reads a RISC I core's counters into a Result whose flattened
// statistics are still to be filled.
func fromCore(c *core.CPU, profile bool) *Result {
	s := c.Stats()
	r := &Result{Stats: s, Info: Info{
		Console:          c.Console(),
		ConsoleTruncated: c.Mem.ConsoleTruncated(),
		Cycles:           s.Cycles,
	}}
	if profile {
		r.Profile = c.HeatProfile()
		// Left nil when no n-gram ran, as on the step engine.
		if grams := append(c.HotNGrams(2, 8), c.HotNGrams(3, 8)...); len(grams) > 0 {
			r.NGrams = grams
		}
	}
	return r
}

// flatten copies Stats into the report and sets its Time, at a clock
// period of cycleNS, and its CodeBytes. Under profile, a run that counted
// no heat reports an empty, not a nil, Profile.
func (r *Result) flatten(codeBytes int, cycleNS uint64, profile bool) {
	s := r.Stats
	r.Instructions = s.Instructions
	r.Time = time.Duration(r.Cycles) * time.Duration(cycleNS)
	r.CodeBytes = codeBytes
	r.Calls = s.Calls
	r.MaxCallDepth = s.MaxCallDepth
	r.WindowOverflows = s.WindowOverflow
	r.WindowUnderflows = s.WindowUnderflow
	r.DataReadBytes = s.DataReads
	r.DataWriteBytes = s.DataWrites
	r.FetchBytes = s.FetchBytes
	if profile && r.Profile == nil {
		r.Profile = []core.HeatEntry{}
	}
}
