package core

import (
	"errors"
	"testing"

	"risc1/internal/asm"
)

// infiniteLoop never halts: one 1-cycle delayed branch plus its 1-cycle NOP
// slot per trip, so cycles advance exactly one per step forever.
const infiniteLoop = "main: b main\n nop\n"

// TestMaxCyclesExactRun pins the hardened cycle-limit semantics: a run over
// budget aborts at exactly MaxCycles — not at the next multiple of the batch
// size, which the old per-batch check allowed to overshoot by up to ~128.
func TestMaxCyclesExactRun(t *testing.T) {
	const limit = 100 // deliberately off any batch boundary
	c := New(Config{MaxCycles: limit})
	if err := c.Load(asm.MustAssemble(infiniteLoop)); err != nil {
		t.Fatal(err)
	}
	err := c.Run()
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if got := c.Stats().Cycles; got != limit {
		t.Fatalf("aborted at cycle %d, want exactly %d", got, limit)
	}
}

// TestMaxCyclesExactStep checks that external Step callers get the same
// protection as Run: the step that would begin at the limit refuses to
// execute, leaving the cycle counter untouched.
func TestMaxCyclesExactStep(t *testing.T) {
	const limit = 7
	c := New(Config{MaxCycles: limit})
	if err := c.Load(asm.MustAssemble(infiniteLoop)); err != nil {
		t.Fatal(err)
	}
	steps := 0
	var err error
	for ; steps < 1000; steps++ {
		if err = c.Step(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if steps != limit {
		t.Fatalf("executed %d steps before abort, want %d", steps, limit)
	}
	if got := c.Stats().Cycles; got != limit {
		t.Fatalf("cycles after refused step = %d, want %d", got, limit)
	}
	// The refusal is sticky: further steps keep returning ErrMaxCycles.
	if err := c.Step(); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("second refused step: %v, want ErrMaxCycles", err)
	}
}
