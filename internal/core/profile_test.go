package core

import (
	"testing"

	"risc1/internal/asm"
)

// runAuto runs src under the block engine.
func runAuto(t *testing.T, src string) *CPU {
	t.Helper()
	c := New(Config{})
	if err := c.Load(asm.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHeatProfile: the profile must rank the loop leader hottest and come
// out sorted, and the step engine, which dispatches no blocks, counts none.
func TestHeatProfile(t *testing.T) {
	c := runAuto(t, loopSrc)
	prof := c.HeatProfile()
	if len(prof) == 0 {
		t.Fatal("empty heat profile after a hot loop")
	}
	for i := 1; i < len(prof); i++ {
		if prof[i].Count > prof[i-1].Count {
			t.Fatalf("profile not sorted: %+v", prof)
		}
	}
	// The loop leader is the third instruction (add r0 / li are the
	// prologue): word 2 of the image. Its block runs once per trip but
	// the first, which runs inside the prologue's block.
	if hot := prof[0]; hot.PC != 8 || hot.Count != 999 {
		t.Fatalf("hottest block = %+v, want 999 dispatches at 0x8 (loop leader)", hot)
	}
	s := New(Config{Engine: EngineStep})
	if err := s.Load(asm.MustAssemble(loopSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if prof := s.HeatProfile(); len(prof) != 0 {
		t.Fatalf("step engine counted heat: %+v", prof)
	}
}

// TestHotNGrams: the measured dynamic n-gram profile must surface the
// loop body's add/sub(cmp)/jmpr sequence with a dominant count.
func TestHotNGrams(t *testing.T) {
	c := runAuto(t, loopSrc)
	for _, n := range []int{2, 3} {
		grams := c.HotNGrams(n, 8)
		if len(grams) == 0 {
			t.Fatalf("no %d-grams measured", n)
		}
		for _, g := range grams {
			if len(g.Ops) != n {
				t.Fatalf("%d-gram with %d ops: %+v", n, len(g.Ops), g)
			}
			if g.Count == 0 {
				t.Fatalf("zero-count n-gram survived ranking: %+v", grams)
			}
		}
		for i := 1; i < len(grams); i++ {
			if grams[i].Count > grams[i-1].Count {
				t.Fatalf("%d-grams not sorted: %+v", n, grams)
			}
		}
	}
	// Clamping: out-of-range n snaps into [2, 3].
	if got := c.HotNGrams(7, 1); len(got) == 0 || len(got[0].Ops) != 3 {
		t.Fatalf("HotNGrams(7) did not clamp to trigrams: %+v", got)
	}
}
