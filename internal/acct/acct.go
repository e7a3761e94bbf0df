// Package acct checks the identities a run's counters satisfy. The engine
// differentials and the pinned suite runs both hold their runs to them, so
// a counter that one engine or one machine forgets fails in both.
package acct

import (
	"errors"
	"fmt"

	"risc1/internal/stats"
	"risc1/internal/timing"
)

// Run is what Check reads of one run.
type Run struct {
	Stats *stats.Stats
	// DepthHist marks a machine that keeps the call-depth histogram: the
	// RISC I cores do, CX does not.
	DepthHist bool
	// Windowed marks a single-core run of the windowed RISC I, whose cycles
	// add up exactly.
	Windowed bool
}

// categoryCycles is the fixed cost internal/timing sets for each RISC I
// instruction category.
var categoryCycles = map[string]uint64{
	"alu":     timing.RiscALUCycles,
	"load":    timing.RiscLoadCycles,
	"store":   timing.RiscStoreCycles,
	"control": timing.RiscTransferCycles,
	"misc":    timing.RiscMiscCycles,
}

// Check returns every identity r breaks, joined, or nil:
//   - Σ ByName = Σ ByCategory = Instructions;
//   - Σ DepthHist = Calls, on a machine that keeps the histogram;
//   - on a windowed run, Cycles is the fixed cost of every instruction by
//     category plus the spill and fill costs of its window traps and the
//     cost of the windows its overflow traps spilled beyond the first.
func Check(r Run) error {
	s := r.Stats
	var errs []error
	var byName, byCategory, depths uint64
	for _, n := range s.ByName {
		byName += n
	}
	for _, n := range s.ByCategory {
		byCategory += n
	}
	for _, n := range s.DepthHist {
		depths += n
	}
	if byName != s.Instructions || byCategory != s.Instructions {
		errs = append(errs, fmt.Errorf("Σ ByName = %d, Σ ByCategory = %d, Instructions = %d",
			byName, byCategory, s.Instructions))
	}
	if r.DepthHist && depths != s.Calls {
		errs = append(errs, fmt.Errorf("Σ DepthHist = %d, Calls = %d", depths, s.Calls))
	}
	if r.Windowed {
		var fixed uint64
		for cat, n := range s.ByCategory {
			cost, ok := categoryCycles[cat]
			if !ok {
				errs = append(errs, fmt.Errorf("category %q has no cycle cost", cat))
			}
			fixed += n * cost
		}
		traps := timing.TrapCycles(s.WindowOverflow, s.WindowUnderflow, s.WindowBatchSpills)
		if s.Cycles != fixed+traps {
			errs = append(errs, fmt.Errorf("Cycles = %d, want %d = %d by category + %d in %d spill and %d fill traps and %d batch spills",
				s.Cycles, fixed+traps, fixed, traps, s.WindowOverflow, s.WindowUnderflow, s.WindowBatchSpills))
		}
	}
	return errors.Join(errs...)
}
