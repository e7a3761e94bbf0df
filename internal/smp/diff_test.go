package smp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/core"
	"risc1/internal/isa"
	"risc1/internal/prog"
	"risc1/internal/stats"
)

// A single-core SMP machine must be the single-core machine: quantum
// slicing through RunFor has to retire bit-identical architectural state
// and stats versus one uninterrupted RunContext, for every engine tier,
// across the whole benchmark suite. This is the contract that lets the
// facade route Cores=1 through either path without anyone noticing.
func TestSingleCoreDifferential(t *testing.T) {
	engines := []struct {
		name string
		e    core.Engine
	}{
		{"step", core.EngineStep},
		{"auto", core.EngineAuto},
	}
	for _, b := range prog.All() {
		res, err := cc.Compile(b.Source, cc.Options{Target: cc.RISCWindowed})
		if err != nil {
			t.Fatalf("compile %s: %v", b.Name, err)
		}
		img, err := asm.Assemble(res.Asm)
		if err != nil {
			t.Fatalf("assemble %s: %v", b.Name, err)
		}
		for _, eng := range engines {
			cfg := core.Config{Engine: eng.e}

			oracle := core.New(cfg)
			if err := oracle.Load(img); err != nil {
				t.Fatalf("%s/%s: oracle load: %v", b.Name, eng.name, err)
			}
			oracleErr := oracle.Run()

			m, err := New(img, Config{Cores: 1, Core: cfg})
			if err != nil {
				t.Fatalf("%s/%s: smp new: %v", b.Name, eng.name, err)
			}
			smpErr := m.Run(context.Background())

			if (oracleErr == nil) != (smpErr == nil) {
				t.Fatalf("%s/%s: error mismatch: oracle %v, smp %v",
					b.Name, eng.name, oracleErr, smpErr)
			}
			compareState(t, b.Name+"/"+eng.name, oracle, m.Core(0))
		}
	}
}

// compareState requires identical visible architectural state between two
// cores: PC, halt, flags, window position, all visible registers, console
// output, and the complete statistics block.
func compareState(t *testing.T, label string, want, got *core.CPU) {
	t.Helper()
	if want.PC() != got.PC() {
		t.Fatalf("%s: pc mismatch: %#x vs %#x", label, want.PC(), got.PC())
	}
	if want.Halted() != got.Halted() {
		t.Fatalf("%s: halted mismatch: %v vs %v", label, want.Halted(), got.Halted())
	}
	if want.Flags() != got.Flags() {
		t.Fatalf("%s: flags mismatch: %+v vs %+v", label, want.Flags(), got.Flags())
	}
	if want.CallDepth() != got.CallDepth() {
		t.Fatalf("%s: call depth mismatch: %d vs %d", label, want.CallDepth(), got.CallDepth())
	}
	if want.Regs.CWP() != got.Regs.CWP() {
		t.Fatalf("%s: cwp mismatch: %d vs %d", label, want.Regs.CWP(), got.Regs.CWP())
	}
	for r := 0; r < isa.NumVisibleRegs; r++ {
		if a, b := want.Reg(uint8(r)), got.Reg(uint8(r)); a != b {
			t.Fatalf("%s: r%d mismatch: %#x vs %#x", label, r, a, b)
		}
	}
	if a, b := want.Console(), got.Console(); a != b {
		t.Fatalf("%s: console mismatch: %q vs %q", label, a, b)
	}
	if a, b := want.Stats(), got.Stats(); !reflect.DeepEqual(*a, *b) {
		t.Fatalf("%s: stats mismatch:\noracle: %+v\nsmp:    %+v", label, *a, *b)
	}
}

// TestInterleavingEngineIndependent: a scheduling quantum retires the same
// instructions under every engine, so the cores interleave identically and
// a multi-core run is the same run under auto and step, down to every
// core's Stats, the rounds and the makespan. It is what lets the race
// detector, which forces the step engine, check the interleaving auto runs.
func TestInterleavingEngineIndependent(t *testing.T) {
	for _, name := range []string{"psum", "pcrunch", "pqsort"} {
		for _, n := range []int{2, 4} {
			label := fmt.Sprintf("%s on %d cores", name, n)
			step := runKernel(t, name, n, core.EngineStep)
			auto := runKernel(t, name, n, core.EngineAuto)
			if a, b := step.Console(), auto.Console(); a != b {
				t.Errorf("%s: console step %q, auto %q", label, a, b)
			}
			var sum [2]stats.Stats
			for i := 0; i < n; i++ {
				a, b := step.Core(i).Stats(), auto.Core(i).Stats()
				if !reflect.DeepEqual(*a, *b) {
					t.Errorf("%s: core %d stats:\nstep: %+v\nauto: %+v", label, i, *a, *b)
				}
				sum[0].Add(a)
				sum[1].Add(b)
			}
			if !reflect.DeepEqual(sum[0], sum[1]) {
				t.Errorf("%s: total stats:\nstep: %+v\nauto: %+v", label, sum[0], sum[1])
			}
			if a, b := step.CoreStats(), auto.CoreStats(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: per-core breakdown:\nstep: %+v\nauto: %+v", label, a, b)
			}
			if step.Rounds() != auto.Rounds() || step.Elapsed() != auto.Elapsed() {
				t.Errorf("%s: step %d rounds, makespan %d; auto %d rounds, makespan %d",
					label, step.Rounds(), step.Elapsed(), auto.Rounds(), auto.Elapsed())
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	img := compileKernel(t, "psum")
	for _, n := range []int{0, -1, MaxCores + 1} {
		if _, err := New(img, Config{Cores: n}); err != ErrBadCores {
			t.Errorf("Cores=%d: err = %v, want ErrBadCores", n, err)
		}
	}
	flat, err := cc.Compile("int main() { putint(1); return 0; }",
		cc.Options{Target: cc.RISCFlat})
	if err != nil {
		t.Fatal(err)
	}
	fimg, err := asm.Assemble(flat.Asm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fimg, Config{Cores: 2, Core: core.Config{Flat: true}}); err != ErrWindowedOnly {
		t.Errorf("flat target: err = %v, want ErrWindowedOnly", err)
	}
	if !ValidCores(1) || !ValidCores(MaxCores) || ValidCores(0) || ValidCores(MaxCores+1) {
		t.Error("ValidCores bounds wrong")
	}
}

// The SMP builtins are windowed-only; both other backends must reject them
// with a typed compile error, not generate silently broken code.
func TestBuiltinsRejectedOffTarget(t *testing.T) {
	src := "int main() { int h; h = spawn(main, 0); join(h); return 0; }"
	for _, tgt := range []cc.Target{cc.RISCFlat, cc.CISC} {
		_, err := cc.Compile("void w(int k) {} int main() { join(spawn(w, 0)); return 0; }", cc.Options{Target: tgt})
		var cerr *cc.CompileError
		if err == nil {
			t.Errorf("%v: compile succeeded, want windowed-only error (src %q)", tgt, src)
		} else if !asCompileError(err, &cerr) {
			t.Errorf("%v: err = %T %v, want *cc.CompileError", tgt, err, err)
		}
	}
}

func asCompileError(err error, out **cc.CompileError) bool {
	if e, ok := err.(*cc.CompileError); ok {
		*out = e
		return true
	}
	return false
}
