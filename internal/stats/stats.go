// Package stats accumulates the execution statistics that the RISC I
// evaluation is built from: dynamic instruction mix, cycle counts, memory
// traffic, procedure-call behaviour, register-window events and delay-slot
// usage.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Stats is a bag of counters filled in by a simulated machine while it runs.
// The zero value is ready to use.
type Stats struct {
	// Dynamic instruction counts.
	Instructions uint64
	ByName       map[string]uint64 // mnemonic -> count
	ByCategory   map[string]uint64 // category -> count

	// Timing.
	Cycles uint64

	// Memory traffic in bytes (data side counted by mem.Memory; these are
	// the machine-visible aggregates copied out after a run).
	DataReads  uint64
	DataWrites uint64
	FetchBytes uint64

	// Procedure-call behaviour.
	Calls           uint64
	Returns         uint64
	MaxCallDepth    int
	WindowOverflow  uint64 // register-window spill traps
	WindowUnderflow uint64 // register-window fill traps
	// WindowBatchSpills counts the windows overflow traps spilled beyond
	// the first, under a spill batch above one.
	WindowBatchSpills uint64
	// DepthHist[d] counts calls entered at nesting depth d (clamped to
	// the last bucket): the call-depth distribution behind the paper's
	// register-window sizing argument.
	DepthHist [64]uint64

	// Delayed-transfer accounting.
	Transfers       uint64 // executed control transfers
	TakenTransfers  uint64 // transfers that actually redirected control
	DelaySlotNops   uint64 // delay slots occupied by a NOP
	DelaySlotUseful uint64 // delay slots doing real work
}

// New returns an empty Stats with its maps allocated.
func New() *Stats {
	return &Stats{ByName: map[string]uint64{}, ByCategory: map[string]uint64{}}
}

// Count records one executed instruction of the given mnemonic and category.
func (s *Stats) Count(name, category string) {
	s.Instructions++
	s.ByName[name]++
	s.ByCategory[category]++
}

// DataBytes returns total data-memory traffic.
func (s *Stats) DataBytes() uint64 { return s.DataReads + s.DataWrites }

// MixEntry is one row of an instruction-mix table.
type MixEntry struct {
	Name  string
	Count uint64
	Pct   float64
}

// Mix returns the dynamic instruction mix sorted by descending frequency.
func (s *Stats) Mix() []MixEntry {
	return mixOf(s.ByName, s.Instructions)
}

// CategoryMix returns the per-category mix sorted by descending frequency.
func (s *Stats) CategoryMix() []MixEntry {
	return mixOf(s.ByCategory, s.Instructions)
}

func mixOf(m map[string]uint64, total uint64) []MixEntry {
	out := make([]MixEntry, 0, len(m))
	for name, n := range m {
		e := MixEntry{Name: name, Count: n}
		if total > 0 {
			e.Pct = 100 * float64(n) / float64(total)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Add accumulates o into s (used to aggregate a whole benchmark suite).
func (s *Stats) Add(o *Stats) {
	s.Instructions += o.Instructions
	s.Cycles += o.Cycles
	s.DataReads += o.DataReads
	s.DataWrites += o.DataWrites
	s.FetchBytes += o.FetchBytes
	s.Calls += o.Calls
	s.Returns += o.Returns
	if o.MaxCallDepth > s.MaxCallDepth {
		s.MaxCallDepth = o.MaxCallDepth
	}
	s.WindowOverflow += o.WindowOverflow
	s.WindowUnderflow += o.WindowUnderflow
	s.WindowBatchSpills += o.WindowBatchSpills
	for i := range o.DepthHist {
		s.DepthHist[i] += o.DepthHist[i]
	}
	s.Transfers += o.Transfers
	s.TakenTransfers += o.TakenTransfers
	s.DelaySlotNops += o.DelaySlotNops
	s.DelaySlotUseful += o.DelaySlotUseful
	if s.ByName == nil {
		s.ByName = map[string]uint64{}
	}
	if s.ByCategory == nil {
		s.ByCategory = map[string]uint64{}
	}
	for k, v := range o.ByName {
		s.ByName[k] += v
	}
	for k, v := range o.ByCategory {
		s.ByCategory[k] += v
	}
}

// RecordDepth counts one call entered at nesting depth d.
func (s *Stats) RecordDepth(d int) {
	if d < 0 {
		d = 0
	}
	if d >= len(s.DepthHist) {
		d = len(s.DepthHist) - 1
	}
	s.DepthHist[d]++
}

// DepthQuantile returns the smallest depth containing at least frac of all
// recorded calls (frac in (0,1]).
func (s *Stats) DepthQuantile(frac float64) int {
	var total uint64
	for _, n := range s.DepthHist {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := uint64(frac * float64(total))
	if want == 0 {
		want = 1
	}
	var cum uint64
	for d, n := range s.DepthHist {
		cum += n
		if cum >= want {
			return d
		}
	}
	return len(s.DepthHist) - 1
}

// String renders a compact human-readable summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instructions=%d cycles=%d", s.Instructions, s.Cycles)
	if s.Instructions > 0 {
		fmt.Fprintf(&b, " cpi=%.2f", float64(s.Cycles)/float64(s.Instructions))
	}
	fmt.Fprintf(&b, " dataR=%dB dataW=%dB fetch=%dB calls=%d depth=%d ovf=%d unf=%d",
		s.DataReads, s.DataWrites, s.FetchBytes, s.Calls, s.MaxCallDepth,
		s.WindowOverflow, s.WindowUnderflow)
	return b.String()
}
