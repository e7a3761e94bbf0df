package risc1_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"risc1"
)

func TestBuildAndRunAllTargets(t *testing.T) {
	src := `
int square(int x) { return x * x; }
int main() { putint(square(6) + square(8)); return 0; }`
	for _, target := range []risc1.Target{risc1.RISCWindowed, risc1.RISCFlat, risc1.CISC} {
		out, err := risc1.BuildAndRun(src, target)
		if err != nil {
			t.Fatalf("%v: %v", target, err)
		}
		if out.Console != "100" {
			t.Errorf("%v: console %q", target, out.Console)
		}
		if out.Instructions == 0 || out.Cycles == 0 || out.Time <= 0 {
			t.Errorf("%v: stats not populated: %+v", target, out)
		}
	}
}

func TestMachineAssemblyLevel(t *testing.T) {
	m := risc1.NewMachine(risc1.MachineConfig{})
	err := m.LoadAssembly(`
	main:	add r0,#21,r1
		add r1,r1,r1
		stl r1,(r0)#-252
		ret r25,#8
		nop
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Console() != "42" || m.Reg(1) != 42 || !m.Halted() {
		t.Errorf("console=%q r1=%d halted=%v", m.Console(), m.Reg(1), m.Halted())
	}
	if m.Info().Instructions != 4 {
		t.Errorf("instructions = %d, want 4", m.Info().Instructions)
	}
}

func TestMachineStep(t *testing.T) {
	m := risc1.NewMachine(risc1.MachineConfig{Windows: 4})
	if err := m.LoadAssembly("main: add r0,#1,r1\n ret r25,#8\n nop"); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.PC() != 4 || m.Reg(1) != 1 {
		t.Errorf("after one step: pc=%d r1=%d", m.PC(), m.Reg(1))
	}
}

func TestTraceCallback(t *testing.T) {
	m := risc1.NewMachine(risc1.MachineConfig{})
	if err := m.LoadAssembly("main: add r0,#1,r1\n ret r25,#8\n nop"); err != nil {
		t.Fatal(err)
	}
	var got []string
	m.SetTrace(func(pc uint32, disasm string) {
		got = append(got, disasm)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "add r0,#1,r1" || got[1] != "ret r25,#8" {
		t.Errorf("trace = %v", got)
	}
	// Clearing the trace must stop callbacks.
	m.SetTrace(nil)
}

// TestTraceEngineIndependent pins that SetTrace reports the same (pc,
// disasm) sequence under the step engine and under auto, where blocks
// report their retirements a run at a time: through loops, calls that
// spill and fill, and a load that faults in the middle of a block (which
// must not be traced).
func TestTraceEngineIndependent(t *testing.T) {
	const src = `
	main:	add r0,#0,r1
	loop:	add r1,#1,r1
		add r0,#4,r10
		callr r25,sum
		nop
		add r10,r1,r4
		cmp r1,#30
		blt loop
		nop
		ldhi r2,#0x3ffff
		add r1,#2,r1
		ldl (r2)#0,r3
		add r1,#3,r1
		ret r25,#8
		nop
	sum:	cmp r26,#0
		beq base
		nop
		sub r26,#1,r10
		callr r25,sum
		nop
		add r10,r26,r26
	base:	ret r25,#8
		nop
	`
	trace := func(e risc1.Engine) ([]string, error) {
		m := risc1.NewMachine(risc1.MachineConfig{Windows: 3, Engine: e})
		if err := m.LoadAssembly(src); err != nil {
			t.Fatal(err)
		}
		var got []string
		m.SetTrace(func(pc uint32, disasm string) {
			got = append(got, fmt.Sprintf("%08x: %s", pc, disasm))
		})
		return got, m.Run()
	}
	want, errStep := trace(risc1.EngineStep)
	got, errAuto := trace(risc1.EngineAuto)
	if errStep == nil || errAuto == nil || errStep.Error() != errAuto.Error() {
		t.Fatalf("want the same mid-block fault: step %v, auto %v", errStep, errAuto)
	}
	if len(want) < 500 || strings.Contains(want[len(want)-1], "ldl") {
		t.Fatalf("step trace has %d entries ending in %q", len(want), want[len(want)-1])
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("auto trace (%d entries) differs from step trace (%d entries)", len(got), len(want))
	}
}

func TestDisassemble(t *testing.T) {
	out, err := risc1.Disassemble("main: add r1,r2,r3\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "add r1,r2,r3") {
		t.Errorf("listing: %s", out)
	}
}

func TestCompileCmShowsAssembly(t *testing.T) {
	asmText, err := risc1.CompileCm("int main() { return 3; }", risc1.RISCWindowed,
		risc1.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"main:", "ret r25,#8"} {
		if !strings.Contains(asmText, want) {
			t.Errorf("assembly missing %q:\n%s", want, asmText)
		}
	}
}

func TestBenchmarkAccessors(t *testing.T) {
	names := risc1.BenchmarkNames()
	if len(names) < 10 {
		t.Fatalf("only %d benchmarks", len(names))
	}
	src, ok := risc1.BenchmarkSource("hanoi")
	if !ok || !strings.Contains(src, "hanoi") {
		t.Error("hanoi source missing")
	}
	if _, ok := risc1.BenchmarkSource("nope"); ok {
		t.Error("found nonexistent benchmark")
	}
}

func TestExperimentDispatch(t *testing.T) {
	// E2 and E8 are static (fast); they prove the dispatch path.
	for _, id := range []string{"E2", "E8"} {
		out, err := risc1.Experiment(id)
		if err != nil || out == "" {
			t.Errorf("experiment %s: %v", id, err)
		}
	}
	if _, err := risc1.Experiment("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(risc1.ExperimentIDs()) != 12 {
		t.Error("expected 12 experiments")
	}
}

func TestCompileErrorSurface(t *testing.T) {
	if _, err := risc1.BuildAndRun("int main() { return x; }", risc1.RISCWindowed); err == nil {
		t.Error("undefined variable compiled")
	}
	if err := risc1.NewMachine(risc1.MachineConfig{}).LoadAssembly("frob r1"); err == nil {
		t.Error("bad assembly loaded")
	}
}

// TestNestedSubscriptsAllTargets runs p[p[...p[0]...]] nested 1 to 39 deep
// on every sequential target. Each level holds its base in a register while
// its index evaluates, so past the free registers a RISC target has to
// spill a pending base rather than give up. p walks the cycle 0→1→2→3→0, so
// the printed value depends on the depth, and all three targets must print
// the same.
func TestNestedSubscriptsAllTargets(t *testing.T) {
	for depth := 1; depth <= 39; depth++ {
		src := "int p[4];\nint main() { p[0] = 1; p[1] = 2; p[2] = 3; p[3] = 0;\nputint(" +
			strings.Repeat("p[", depth) + "0" + strings.Repeat("]", depth) + "); return 0; }"
		want := fmt.Sprint(depth % 4)
		for _, target := range []risc1.Target{risc1.CISC, risc1.RISCWindowed, risc1.RISCFlat} {
			out, err := risc1.BuildAndRun(src, target)
			if err != nil {
				t.Errorf("depth %d on %v: %v", depth, target, err)
			} else if out.Console != want {
				t.Errorf("depth %d on %v: console %q, want %q", depth, target, out.Console, want)
			}
		}
	}
}

// parallelSrc spawns one worker; 0+1+2 = 3 under any interleaving thanks to
// the spinlock.
const parallelSrc = `
int total;
void worker(int k) {
    lock(0);
    total += k + 1;
    unlock(0);
}
int main() {
    int h;
    h = spawn(worker, 1);
    worker(0);
    join(h);
    putint(total);
    return 0;
}`

func TestRunImageSMP(t *testing.T) {
	img, err := risc1.CompileToImage(parallelSrc, risc1.RISCWindowed)
	if err != nil {
		t.Fatal(err)
	}
	info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Console != "3" {
		t.Errorf("console %q, want 3", info.Console)
	}
	if info.SMP == nil || info.SMP.Cores != 2 || info.SMP.Spawns != 1 {
		t.Fatalf("SMP = %+v, want 2 cores / 1 spawn", info.SMP)
	}
	if len(info.SMP.PerCore) != 2 || info.SMP.PerCore[1].Instructions == 0 {
		t.Errorf("per-core stats %+v: worker core retired nothing", info.SMP.PerCore)
	}

	// Cores <= 1 keeps the single-core path: no SMP section at all.
	info, err = risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.SMP != nil {
		t.Errorf("single-core run grew an SMP section: %+v", info.SMP)
	}

	if _, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: risc1.MaxCores + 1}); !errors.Is(err, risc1.ErrBadCores) {
		t.Errorf("over-limit cores: %v, want ErrBadCores", err)
	}
	if _, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: -1}); !errors.Is(err, risc1.ErrBadCores) {
		t.Errorf("negative cores: %v, want ErrBadCores", err)
	}
	flat, err := risc1.CompileToImage("int main() { putint(1); return 0; }", risc1.RISCFlat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := risc1.RunImage(context.Background(), flat, risc1.RunOptions{Cores: 2}); !errors.Is(err, risc1.ErrWindowedOnly) {
		t.Errorf("flat multi-core: %v, want ErrWindowedOnly", err)
	}
}
