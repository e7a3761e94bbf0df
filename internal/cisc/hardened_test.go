package cisc

import (
	"context"
	"errors"
	"testing"
	"time"

	"risc1/internal/mem"
)

// TestCXRunContextDeadline cancels an unbounded CX run by deadline.
func TestCXRunContextDeadline(t *testing.T) {
	c := New(Config{})
	if err := c.Load(MustAssemble(cxInfiniteLoop)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := c.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RunError", err)
	}
	if re.Inst == "" {
		t.Error("Inst empty, want disassembly of the interrupted instruction")
	}
	if len(re.Regs) == 0 {
		t.Error("Regs empty, want a register snapshot")
	}
}

// TestCXRunContextCancelAtBatch cancels the context from the first
// Progress call: the run must stop at that batch boundary, after exactly
// one batch of 4096 instructions, all of which the hook saw.
func TestCXRunContextCancelAtBatch(t *testing.T) {
	c := New(Config{})
	if err := c.Load(MustAssemble(cxInfiniteLoop)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen []uint64
	c.Progress = func(instructions, _ uint64) {
		seen = append(seen, instructions)
		cancel()
	}
	if err := c.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if len(seen) != 1 || seen[0] != 4096 || c.Stats().Instructions != 4096 {
		t.Fatalf("Progress saw %v, run retired %d, want one batch of 4096", seen, c.Stats().Instructions)
	}
}

// TestCXInjectedFaultSurfacesAsRunError checks the mem fault-injection hook
// reaches CX run errors with the machine state attached.
func TestCXInjectedFaultSurfacesAsRunError(t *testing.T) {
	c := New(Config{})
	img := MustAssemble("main: .mask\n movl #7, @0xFFFFFF04\n ret\n")
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	c.Mem.SetFaultPlan(&mem.FaultPlan{FailNthWrite: 1})
	err := c.Run()
	var mf *mem.Fault
	if !errors.As(err, &mf) || !mf.Injected {
		t.Fatalf("err = %v, want injected mem.Fault", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RunError", err)
	}
	if c.Console() != "" {
		t.Fatalf("faulted store still printed %q", c.Console())
	}
}
