package smp

import (
	"context"
	"testing"

	"risc1/internal/acct"
	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/core"
	"risc1/internal/prog"
)

func compileKernel(t *testing.T, name string) *asm.Image {
	t.Helper()
	b, ok := prog.ParallelByName(name)
	if !ok {
		t.Fatalf("no parallel kernel %q", name)
	}
	// WideData: the kernels' arrays push globals past gp-relative range.
	res, err := cc.Compile(b.Source, cc.Options{Target: cc.RISCWindowed, WideData: true})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	img, err := asm.Assemble(res.Asm)
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	return img
}

func runKernel(t *testing.T, name string, cores int, engine core.Engine) *Machine {
	t.Helper()
	img := compileKernel(t, name)
	m, err := New(img, Config{
		Cores: cores,
		Core:  core.Config{SaveStackBytes: 64 << 10, Engine: engine},
	})
	if err != nil {
		t.Fatalf("New(%s, %d cores): %v", name, cores, err)
	}
	if err := m.Run(context.Background()); err != nil {
		t.Fatalf("run %s on %d cores: %v", name, cores, err)
	}
	return m
}

// TestPerCoreCountersAddUp runs a parallel kernel on four cores and holds
// each core's own Stats to the counter identities. Blocks are shared by the
// cores but each core counts its own full block runs and folds their opcode
// mix in when its Stats are read, so every core's mix must add up to its
// own instruction count.
func TestPerCoreCountersAddUp(t *testing.T) {
	m := runKernel(t, "pcrunch", 4, core.EngineAuto)
	for i := range m.Cores() {
		c := m.Core(i)
		s := c.Stats()
		if s.Instructions == 0 {
			t.Errorf("core %d retired nothing", i)
		}
		if err := acct.Check(acct.Run{
			Stats:     s,
			DepthHist: true,
			Windowed:  true,
		}); err != nil {
			t.Errorf("core %d: %v", i, err)
		}
	}
}

func TestParallelKernels(t *testing.T) {
	for _, name := range []string{"psum", "pcrunch", "pqsort"} {
		want := prog.Expected(name)
		for _, n := range []int{1, 2, 4, 8} {
			m := runKernel(t, name, n, core.EngineAuto)
			if got := m.Console(); got != want {
				t.Errorf("%s on %d cores: console %q, want %q", name, n, got, want)
			}
			if n > 1 && m.Spawns() == 0 {
				t.Errorf("%s on %d cores: no workers spawned", name, n)
			}
		}
	}
}
