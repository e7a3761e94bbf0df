package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"risc1/internal/asm"
	"risc1/internal/mem"
)

// TestRunContextDeadline runs a guest that never halts under a short wall
// deadline: the run must stop with an error wrapping DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	c := New(Config{})
	if err := c.Load(asm.MustAssemble(infiniteLoop)); err != nil {
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
}

// TestRunContextPreCanceled checks that an already-canceled context stops
// the run before any batch completes.
func TestRunContextPreCanceled(t *testing.T) {
	c := New(Config{})
	if err := c.Load(asm.MustAssemble(infiniteLoop)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if got := c.Stats().Instructions; got != 0 {
		t.Fatalf("pre-canceled run executed %d instructions, want 0", got)
	}
}

// TestRunContextCancelAtBatch cancels the context from the first Progress
// call: the run must stop at that batch boundary, with exactly the
// instructions the hook saw retired. Both engines reach it after one full
// batch of 4096 instructions.
func TestRunContextCancelAtBatch(t *testing.T) {
	for _, e := range []Engine{EngineStep, EngineAuto} {
		c := New(Config{Engine: e})
		if err := c.Load(asm.MustAssemble(infiniteLoop)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var seen []uint64
		c.Progress = func(instructions, _ uint64) {
			seen = append(seen, instructions)
			cancel()
		}
		if err := c.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want Canceled", e, err)
		}
		if len(seen) != 1 || c.Stats().Instructions != seen[0] {
			t.Fatalf("%v: Progress saw %v, run retired %d", e, seen, c.Stats().Instructions)
		}
		if n := seen[0]; n != 4096 {
			t.Fatalf("%v: first batch boundary at %d instructions, want 4096", e, n)
		}
	}
}

// TestRunErrorState checks the diagnostic payload: PC, disassembly, cycle
// count and a register-window snapshot all describe the faulting state.
func TestRunErrorState(t *testing.T) {
	// r1 := 5, then a misaligned load faults.
	img := asm.MustAssemble("main: add r0,#5,r1\n ldl (r0)#2,r2\n nop\n")
	c := New(Config{})
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	err := c.Run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T (%v), want *RunError", err, err)
	}
	if re.PC != img.Entry+4 {
		t.Errorf("PC = %#x, want %#x", re.PC, img.Entry+4)
	}
	if re.Inst == "" {
		t.Error("Inst empty, want disassembly of the faulting load")
	}
	if re.Cycles == 0 {
		t.Error("Cycles = 0, want nonzero")
	}
	if len(re.Window) != 32 {
		t.Fatalf("len(Window) = %d, want 32", len(re.Window))
	}
	if re.Window[1] != 5 {
		t.Errorf("Window[1] = %d, want 5 (set before the fault)", re.Window[1])
	}
	var mf *mem.Fault
	if !errors.As(err, &mf) || !mf.Misalign {
		t.Errorf("cause = %v, want misaligned mem.Fault", re.Err)
	}
}

// TestInjectedFaultSurfacesAsRunError arms a fault plan on the CPU's memory
// and checks the injected fault travels up as a structured run error.
func TestInjectedFaultSurfacesAsRunError(t *testing.T) {
	img := asm.MustAssemble("main: ldl (r0)#256,r1\n nop\n ret r25,#8\n nop\n")
	c := New(Config{})
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	c.Mem.SetFaultPlan(&mem.FaultPlan{FailNthRead: 1})
	err := c.Run()
	var mf *mem.Fault
	if !errors.As(err, &mf) || !mf.Injected {
		t.Fatalf("err = %v, want injected mem.Fault", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RunError", err)
	}
	if re.PC != img.Entry {
		t.Errorf("PC = %#x, want %#x (the faulting load)", re.PC, img.Entry)
	}
}
