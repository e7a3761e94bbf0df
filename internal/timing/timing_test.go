package timing

import "testing"

func TestTrapCosts(t *testing.T) {
	// A window spill is trap overhead plus 16 two-cycle stores; fill is
	// symmetric. These constants feed the E6 trap-time column.
	if RiscSpillCycles != 40 || RiscFillCycles != 40 {
		t.Errorf("spill/fill = %d/%d cycles, want 40/40",
			RiscSpillCycles, RiscFillCycles)
	}
}

func TestMemoryCostsExceedALU(t *testing.T) {
	if RiscLoadCycles <= RiscALUCycles || RiscStoreCycles <= RiscALUCycles {
		t.Error("memory instructions must cost more than register ops")
	}
}
