package risc1

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/prog"
)

var updateImages = flag.Bool("update-images", false, "rewrite testdata/images.golden")

// pinKernels are the sixteen kernels every workload compiles: the suite and
// the parallel kernels.
func pinKernels() []prog.Benchmark {
	return append(append([]prog.Benchmark(nil), prog.All()...), prog.Parallel()...)
}

var pinTargets = []Target{RISCWindowed, RISCFlat, RISCPipelined, CISC}

// imageDigest renders an image as one golden line: its size, entry and the
// counts of symbols and line spans, then a SHA-256 over all of it — bytes,
// origin, entry, the sorted symbol table and the line table.
func imageDigest(img *Image) string {
	var org, entry uint32
	var bytes []byte
	var symbols map[string]uint32
	var lines []asm.LineSpan
	if img.target == CISC {
		org, entry, bytes, symbols = img.cisc.Org, img.cisc.Entry, img.cisc.Bytes, img.cisc.Symbols
	} else {
		org, entry, bytes, symbols = img.risc.Org, img.risc.Entry, img.risc.Bytes, img.risc.Symbols
		lines = img.risc.Lines
	}
	names := make([]string, 0, len(symbols))
	for name := range symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	fmt.Fprintf(h, "org %d entry %d\n", org, entry)
	h.Write(bytes)
	for _, name := range names {
		fmt.Fprintf(h, "\n%s=%d", name, symbols[name])
	}
	for _, l := range lines {
		fmt.Fprintf(h, "\n%d+%d:%d", l.Addr, l.Size, l.Line)
	}
	return fmt.Sprintf("bytes=%d entry=%#x syms=%d lines=%d sha256=%x",
		len(bytes), entry, len(symbols), len(lines), h.Sum(nil)[:12])
}

// TestCompiledImagesPinned pins every byte CompileToImage produces for the
// sixteen kernels on all four targets, plus the far-data program that takes
// the wide-addressing path. Compiler, assembler and front-end changes that
// claim to leave output alone must leave this golden alone; regenerate it
// with -update-images only for a deliberate output change.
func TestCompiledImagesPinned(t *testing.T) {
	var b strings.Builder
	progs := pinKernels()
	progs = append(progs, prog.Benchmark{Name: "bigGlobals", Source: pinBigGlobals})
	for _, p := range progs {
		for _, target := range pinTargets {
			img, err := CompileToImage(p.Source, target)
			if err != nil {
				fmt.Fprintf(&b, "%s %v error: %v\n", p.Name, target, err)
				continue
			}
			fmt.Fprintf(&b, "%s %v %s\n", p.Name, target, imageDigest(img))
		}
	}
	got := b.String()
	const golden = "testdata/images.golden"
	if *updateImages {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("compiled images differ from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// pinBigGlobals puts 12 KB of data in front of two referenced scalars, so
// its narrow-addressing build cannot assemble.
const pinBigGlobals = `
int pad[3000];
int a;
int b;
int main() {
	a = 35;
	b = 7;
	putint(a + b);
	return 0;
}`

// referenceCompileToImage is the compile sequence CompileToImage is held
// to: compile with gp-relative globals, assemble, and only when assembly
// fails with nothing but range errors compile again from the source with
// WideData and assemble that, reporting the narrow failure if the wide
// compile fails.
func referenceCompileToImage(source string, target Target) (*Image, error) {
	if target == CISC {
		res, err := cc.Compile(source, cc.Options{Target: target})
		if err != nil {
			return nil, err
		}
		ci, err := cisc.Assemble(res.Asm)
		if err != nil {
			return nil, err
		}
		return &Image{target: target, cisc: ci}, nil
	}
	res, err := cc.Compile(source, cc.Options{Target: target})
	if err != nil {
		return nil, err
	}
	img, err := asm.Assemble(res.Asm)
	if err != nil && asm.IsOutOfRange(err) {
		res, werr := cc.Compile(source, cc.Options{Target: target, WideData: true})
		if werr != nil {
			return nil, err
		}
		img, err = asm.Assemble(res.Asm)
	}
	if err != nil {
		return nil, err
	}
	return &Image{target: target, risc: img}, nil
}

// sameCompile compiles src both ways and fails t unless the images (or
// the error texts) are identical. It reports whether the build was wide:
// wide code has no __start stub anchoring the global pointer.
func sameCompile(t *testing.T, name, src string, target Target) (wide bool) {
	t.Helper()
	want, werr := referenceCompileToImage(src, target)
	got, gerr := CompileToImage(src, target)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s on %v: error %v, reference error %v", name, target, gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() || fmt.Sprintf("%T", gerr) != fmt.Sprintf("%T", werr) {
			t.Fatalf("%s on %v: error %T %q, reference %T %q", name, target, gerr, gerr, werr, werr)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s on %v: image %s, reference %s", name, target, imageDigest(got), imageDigest(want))
	}
	if target == CISC {
		return false
	}
	_, narrow := got.risc.Symbols["__start"]
	return !narrow
}

// TestCompileMatchesNarrowThenWide holds CompileToImage to the reference
// sequence on programs from every corner of the narrow/wide decision.
func TestCompileMatchesNarrowThenWide(t *testing.T) {
	for _, k := range pinKernels() {
		for _, target := range pinTargets {
			sameCompile(t, k.Name, k.Source, target)
			for seed := uint64(1); seed <= 3; seed++ {
				salted := k.Source + fmt.Sprintf("\nint bench_salt_%016x;\n", seed*0x9e3779b97f4a7c15)
				sameCompile(t, k.Name+"+salt", salted, target)
			}
		}
	}

	r := rand.New(rand.NewSource(17))
	var wide int
	for trial := 0; trial < 120; trial++ {
		src := randomLayoutProgram(r)
		for _, target := range []Target{RISCWindowed, RISCFlat, CISC} {
			if sameCompile(t, fmt.Sprintf("random %d", trial), src, target) {
				wide++
			}
		}
	}
	if wide == 0 {
		t.Error("no random program took the wide path")
	}

	cases := []struct {
		name, src string
		wide      bool
	}{
		// Data far beyond the window that no instruction addresses.
		{"far global never referenced", `
int pad[3000];
int far;
int main() { putint(1); return 0; }`, false},
		{"far global referenced", pinBigGlobals, true},
		// Nothing in the data layout is far: the 8 KiB of code in front of
		// the data is what pushes the scalar out of reach.
		{"near global pushed out by code", nearGlobalFarCode(), true},
		{"far string literal", `
char pad[9000];
int main() { char *s; s = "hi"; putchar(*s); putchar(s[1]); return 0; }`, true},
		{"far initialized char array", `
int pad[2100];
char msg[6] = "hello";
int main() { putchar(msg[0]); return 0; }`, true},
		{"global just inside the window", `
char pad[4000];
int near;
int main() { near = 5; putint(near); return 0; }`, false},
	}
	for _, c := range cases {
		for _, target := range []Target{RISCWindowed, RISCFlat, RISCPipelined} {
			if wide := sameCompile(t, c.name, c.src, target); wide != c.wide {
				t.Errorf("%s on %v: wide = %v, want %v", c.name, target, wide, c.wide)
			}
		}
	}

	failing := []struct{ name, src string }{
		{"syntax error", "int main() { return 0 }"},
		{"undefined variable", "int main() { return x; }"},
		{"undefined function", "int main() { f(); return 0; }"},
		{"far data with a type error", "int pad[3000]; int a; int main() { a = 1; return *a; }"},
		{"far data with an undefined variable", "int pad[3000]; int a; int main() { a = 1; return y; }"},
		{"spawn on a flat machine", "int w(int x) { return x; } int main() { join(spawn(w, 1)); return 0; }"},
		{"bad number", "int main() { putint(99999999999); return 0; }"},
		// Only the narrow build's startup stub defines __start, so only the
		// narrow text fails to assemble; the wide one would.
		{"far data and a function named __start",
			"int pad[3000]; int a; int __start() { return 1; } int main() { a = __start(); putint(a); return 0; }"},
	}
	for _, f := range failing {
		for _, target := range pinTargets {
			sameCompile(t, f.name, f.src, target)
		}
	}
}

// nearGlobalFarCode is a program whose only global is declared first and
// small, but whose code is over 8 KiB, so the global's address is out of the
// narrow window although no data precedes it.
func nearGlobalFarCode() string {
	var b strings.Builder
	b.WriteString("int x;\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "int f%d(int a) { a = a * 3 + %d; a = a - (a / 7); a = a ^ (a << 2); a = a + (a >> 3); a = a * 5 - 1; return a + x; }\n", i, i)
	}
	b.WriteString("int main() { x = 1; putint(f0(1) + f119(2)); return 0; }\n")
	return b.String()
}

// randomLayoutProgram builds a Cm program whose globals, of random kinds
// and sizes, straddle the 8 KiB gp window, and whose main reads and writes
// a random subset of them and of its string literals. Some are never
// touched, so a far global may be declared without being addressed.
func randomLayoutProgram(r *rand.Rand) string {
	var b strings.Builder
	type global struct {
		name   string
		scalar bool
		elem   string
	}
	var globals []global
	n := 2 + r.Intn(6)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("v%d", i)
		switch r.Intn(5) {
		case 0:
			fmt.Fprintf(&b, "int %s;\n", name)
			globals = append(globals, global{name, true, "int"})
		case 1:
			fmt.Fprintf(&b, "char %s = %d;\n", name, r.Intn(100))
			globals = append(globals, global{name, true, "char"})
		case 2:
			fmt.Fprintf(&b, "int %s[%d];\n", name, 1+r.Intn(1200))
			globals = append(globals, global{name, false, "int"})
		case 3:
			fmt.Fprintf(&b, "char %s[%d];\n", name, 1+r.Intn(5000))
			globals = append(globals, global{name, false, "char"})
		default:
			fmt.Fprintf(&b, "int %s[3] = {%d, %d, %d};\n", name, r.Intn(9), r.Intn(9), r.Intn(9))
			globals = append(globals, global{name, false, "int"})
		}
	}
	b.WriteString("int main() {\n\tint t; char *s; t = 0;\n")
	for i := 0; i < 2+r.Intn(6); i++ {
		g := globals[r.Intn(len(globals))]
		switch {
		case r.Intn(4) == 0:
			fmt.Fprintf(&b, "\ts = \"str%d\"; putchar(*s);\n", r.Intn(1000))
		case g.scalar && r.Intn(2) == 0:
			fmt.Fprintf(&b, "\t%s = t + %d;\n", g.name, r.Intn(50))
		case g.scalar:
			fmt.Fprintf(&b, "\tt = t + %s;\n", g.name)
		default:
			fmt.Fprintf(&b, "\t%s[0] = %d; t = t + %s[0];\n", g.name, r.Intn(50), g.name)
		}
	}
	b.WriteString("\tputint(t);\n\treturn 0;\n}\n")
	return b.String()
}

// TestLintFindingsPinned pins every finding LintImage reports for the
// sixteen kernels on all four targets and for the far-data program, with
// and without the SMP passes forced on: severity, pass, PC, disassembly,
// source line and message. Analyzer changes that claim to leave the
// findings alone must leave testdata/lint.golden alone; delete it to
// regenerate it after a deliberate change.
func TestLintFindingsPinned(t *testing.T) {
	var b strings.Builder
	progs := pinKernels()
	progs = append(progs, prog.Benchmark{Name: "bigGlobals", Source: pinBigGlobals})
	for _, p := range progs {
		for _, target := range pinTargets {
			img, err := CompileToImage(p.Source, target)
			if err != nil {
				fmt.Fprintf(&b, "%s %v error: %v\n", p.Name, target, err)
				continue
			}
			for _, smp := range []bool{false, true} {
				diags := LintImage(img, LintOptions{SMP: smp})
				fmt.Fprintf(&b, "%s %v smp=%v: %d findings\n", p.Name, target, smp, len(diags))
				for _, d := range diags {
					fmt.Fprintf(&b, "\t%s\n", d)
				}
			}
		}
	}
	checkGolden(t, "testdata/lint.golden", b.String())
}
