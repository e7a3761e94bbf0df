package acct

import (
	"strings"
	"testing"

	"risc1/internal/stats"
	"risc1/internal/timing"
)

// sample is a windowed run that satisfies every identity: two ALU
// instructions and a call that took a spill trap, which spilled a second
// window.
func sample() Run {
	s := stats.New()
	s.Instructions = 3
	s.ByName = map[string]uint64{"add": 2, "callr": 1}
	s.ByCategory = map[string]uint64{"alu": 2, "control": 1}
	s.Calls = 1
	s.DepthHist[1] = 1
	s.WindowOverflow = 1
	s.WindowBatchSpills = 1
	s.Cycles = 2*timing.RiscALUCycles + timing.RiscTransferCycles + timing.RiscSpillCycles +
		timing.RiscBatchSpillCycles
	return Run{Stats: s, DepthHist: true, Windowed: true}
}

// TestCheck requires a consistent run to pass and each broken identity to
// be reported by name.
func TestCheck(t *testing.T) {
	if err := Check(sample()); err != nil {
		t.Fatalf("consistent run: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func(*Run)
	}{
		{"mix", "Σ ByName", func(r *Run) { r.Stats.ByName["add"]++ }},
		{"categories", "Σ ByCategory", func(r *Run) { r.Stats.ByCategory["alu"]-- }},
		{"depth histogram", "Σ DepthHist", func(r *Run) { r.Stats.Calls++ }},
		{"cycles", "Cycles", func(r *Run) { r.Stats.Cycles++ }},
		{"batch spills", "batch spills", func(r *Run) { r.Stats.WindowBatchSpills++ }},
		{"category cost", "no cycle cost", func(r *Run) { r.Stats.ByCategory["bogus"] = 0 }},
	} {
		r := sample()
		tc.breakIt(&r)
		if err := Check(r); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// The histogram and cycle identities hold only where asked for.
	r := sample()
	r.Stats.Calls++
	r.Stats.Cycles++
	r.DepthHist, r.Windowed = false, false
	if err := Check(r); err != nil {
		t.Errorf("identities not asked for were checked: %v", err)
	}
}
