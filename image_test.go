package risc1_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"risc1"
	"risc1/internal/core"
	"risc1/internal/prog"
)

// TestImageCompileOnceRunMany pins the serving layer's foundation: one
// compiled Image runs concurrently on fresh machines with identical results.
func TestImageCompileOnceRunMany(t *testing.T) {
	img, err := risc1.CompileToImage(`
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { putint(fib(12)); return 0; }`, risc1.RISCWindowed)
	if err != nil {
		t.Fatal(err)
	}
	if img.Target() != risc1.RISCWindowed || img.Size() == 0 {
		t.Fatalf("bad image: target %v size %d", img.Target(), img.Size())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if info.Console != "144" {
				t.Errorf("console = %q, want 144", info.Console)
			}
		}()
	}
	wg.Wait()
}

// TestImageMatchesBuildAndRun checks the image path and the one-shot path
// produce identical statistics on every target.
func TestImageMatchesBuildAndRun(t *testing.T) {
	src := `int main() { putint(6 * 7); return 0; }`
	for _, target := range []risc1.Target{risc1.RISCWindowed, risc1.RISCFlat, risc1.CISC} {
		direct, err := risc1.BuildAndRun(src, target)
		if err != nil {
			t.Fatal(err)
		}
		img, err := risc1.CompileToImage(src, target)
		if err != nil {
			t.Fatal(err)
		}
		staged, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(staged, direct) {
			t.Errorf("target %v: image run diverged:\n%+v\n%+v", target, staged, direct)
		}
		if dis := img.Disassemble(); len(dis) == 0 {
			t.Errorf("target %v: empty disassembly", target)
		}
	}
}

// TestRunImageMaxCycles pins the budget plumbing: an infinite loop dies at
// exactly the requested cycle.
func TestRunImageMaxCycles(t *testing.T) {
	img, err := risc1.AssembleToImage("main: jmpr alw,main\n nop\n", risc1.RISCWindowed)
	if err != nil {
		t.Fatal(err)
	}
	_, err = risc1.RunImage(context.Background(), img, risc1.RunOptions{MaxCycles: 500})
	if !errors.Is(err, core.ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	var re *core.RunError
	if !errors.As(err, &re) || re.Cycles != 500 {
		t.Fatalf("budget not exact: %v", err)
	}
}

// TestAssembleToImageCISC checks the CX assembler path of AssembleToImage.
func TestAssembleToImageCISC(t *testing.T) {
	asmText, err := risc1.CompileCm(
		`int main() { putint(7); return 0; }`, risc1.CISC, risc1.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := risc1.AssembleToImage(asmText, risc1.CISC)
	if err != nil {
		t.Fatal(err)
	}
	info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Console != "7" {
		t.Errorf("console = %q, want 7", info.Console)
	}
}

// Guests for TestRunImageStartsFromZeroedMemory. Both touch two regions no
// other code uses: 256 words straddling the page boundary at 0x40000 and
// 100 bytes straddling the one at 0x50000. The writer fills them with
// nonzero values and prints their sum; the reader only sums them.
const (
	isolationWriter = `
int main() {
    int *w = 0;
    char *b = 0;
    int i;
    int s = 0;
    w = w + 65408;
    b = b + 327630;
    for (i = 0; i < 256; i++) w[i] = i + 1;
    for (i = 0; i < 100; i++) b[i] = 200;
    for (i = 0; i < 256; i++) s += w[i];
    for (i = 0; i < 100; i++) s += b[i];
    putint(s);
    return 0;
}`
	isolationReader = `
int main() {
    int *w = 0;
    char *b = 0;
    int i;
    int s = 0;
    w = w + 65408;
    b = b + 327630;
    for (i = 0; i < 256; i++) s += w[i];
    for (i = 0; i < 100; i++) s += b[i];
    putint(s);
    return 0;
}`
)

// TestRunImageStartsFromZeroedMemory pins run isolation: a guest never sees
// what an earlier run in the same process left in RAM. This is what keeps
// one riscd request from reading another's memory.
func TestRunImageStartsFromZeroedMemory(t *testing.T) {
	cases := []struct {
		name   string
		target risc1.Target
		opt    risc1.RunOptions
	}{
		{"windowed", risc1.RISCWindowed, risc1.RunOptions{}},
		{"flat", risc1.RISCFlat, risc1.RunOptions{}},
		{"pipelined", risc1.RISCPipelined, risc1.RunOptions{}},
		{"cisc", risc1.CISC, risc1.RunOptions{}},
		{"windowed-2-cores", risc1.RISCWindowed, risc1.RunOptions{Cores: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			writer, err := risc1.CompileToImage(isolationWriter, tc.target)
			if err != nil {
				t.Fatal(err)
			}
			reader, err := risc1.CompileToImage(isolationReader, tc.target)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				info, err := risc1.RunImage(context.Background(), writer, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if want := "52896"; info.Console != want {
					t.Fatalf("writer printed %q, want %s", info.Console, want)
				}
				info, err = risc1.RunImage(context.Background(), reader, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if info.Console != "0" {
					t.Fatalf("round %d: reader summed %s from an earlier run's RAM, want 0",
						round, info.Console)
				}
			}
		})
	}
}

// hotFib is the serve benchmark's hot request: a 7,215-instruction guest
// whose run is short next to the 1 MiB machine it runs on.
const hotFib = "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\nint main() { putint(fib(12)); return 0; }\n"

// TestRunImageReusesRAM pins RAM recycling: once warm, a RunImage of the
// serve mix's hot program allocates far less than the 1 MiB machine it runs
// on. The bound counts bytes, not time, so it is deterministic.
func TestRunImageReusesRAM(t *testing.T) {
	const (
		runs  = 20
		bound = 64 << 10 // bytes per run
	)
	for _, target := range []risc1.Target{risc1.RISCWindowed, risc1.RISCFlat, risc1.RISCPipelined, risc1.CISC} {
		img, err := risc1.CompileToImage(hotFib, target)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if info.Console != "144" {
				t.Fatalf("%v: console = %q, want 144", target, info.Console)
			}
		}
		run() // warm-up: the first run may allocate the RAM it then recycles
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= bound {
			t.Errorf("%v: RunImage allocates %d bytes per run, want under %d", target, per, bound)
		}
	}
}

// BenchmarkRunImageHot measures one RunImage of the hot serve request on the
// windowed target, machine set-up and teardown included:
//
//	go test -bench RunImageHot -benchmem -count 5 .
func BenchmarkRunImageHot(b *testing.B) {
	img, err := risc1.CompileToImage(hotFib, risc1.RISCWindowed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDisassembleDeterministic checks listings do not depend on map order:
// labels that share an address (in compiled code, __data_start and the
// first global) must print in the same order on every call.
func TestDisassembleDeterministic(t *testing.T) {
	check := func(kernels []prog.Benchmark, targets ...risc1.Target) {
		for _, k := range kernels {
			for _, target := range targets {
				img, err := risc1.CompileToImage(k.Source, target)
				if err != nil {
					t.Fatalf("%s on %v: %v", k.Name, target, err)
				}
				first := img.Disassemble()
				for i := 0; i < 20; i++ {
					if img.Disassemble() != first {
						t.Fatalf("%s on %v: listing changed between calls", k.Name, target)
					}
				}
			}
		}
	}
	check(prog.All(), risc1.RISCWindowed, risc1.CISC)
	check(prog.Parallel(), risc1.RISCWindowed) // spawn/join need the windowed target
}
