package cc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/prog"
)

// TestGenerationLeavesASTUnchanged pins what BuildRISC's single parse rests
// on: generating code for every target and addressing mode leaves the
// Program exactly as a fresh parse builds it, so a second generation from
// the same Program emits what a second parse would.
func TestGenerationLeavesASTUnchanged(t *testing.T) {
	kernels := append(append([]prog.Benchmark(nil), prog.All()...), prog.Parallel()...)
	for _, k := range kernels {
		used, err := Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		first, _, err := generateRISC(used, true, true)
		if err != nil {
			t.Fatal(err)
		}
		generateRISC(used, true, false)
		generateRISC(used, false, true)
		generateRISC(used, false, false)
		GenerateCISC(used)
		if !reflect.DeepEqual(used, fresh) {
			t.Fatalf("%s: code generation changed the AST", k.Name)
		}
		again, _, _ := generateRISC(used, true, true)
		if again != first {
			t.Fatalf("%s: a second generation from one AST differs from the first", k.Name)
		}
	}
}

// TestFarDataFlag checks generateRISC flags exactly the gp-relative
// references the data layout alone puts out of reach, and that every
// flagged text indeed fails to assemble with range errors only.
func TestFarDataFlag(t *testing.T) {
	cases := []struct {
		name, src string
		far       bool
	}{
		{"far scalar", "int pad[3000]; int a; int main() { a = 1; return a; }", true},
		{"far scalar read only", "int pad[3000]; int a; int main() { return a; }", true},
		{"far array address", "int pad[2048]; int a[4]; int main() { return a[1]; }", true},
		{"far string", "char pad[8192]; int main() { char *s; s = \"x\"; return *s; }", true},
		{"far but never referenced", "int pad[3000]; int a; int main() { return 0; }", false},
		{"last in-reach byte", "char pad[8188]; int a; int main() { return a; }", false},
		{"first out-of-reach byte", "char pad[8189]; int a; int main() { return a; }", true},
		{"string after in-reach data", "char pad[8184]; int main() { char *s; s = \"abc\"; return *s; }", false},
		{"stub label clash", "int pad[3000]; int a; int __start() { return a; } int main() { return __start(); }", false},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, windowed := range []bool{true, false} {
			text, far, err := generateRISC(p, windowed, true)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if far != c.far {
				t.Errorf("%s (windowed %v): farData = %v, want %v", c.name, windowed, far, c.far)
			}
			if _, err := asm.Assemble(text); far && !asm.IsOutOfRange(err) {
				t.Errorf("%s: flagged text assembles with err = %v", c.name, err)
			}
			if _, wide, _ := generateRISC(p, windowed, false); wide {
				t.Errorf("%s: wide text flagged", c.name)
			}
		}
	}
}

// TestBuildRISCWideFallback covers both ways BuildRISC reaches wide code:
// the flag and the retry after a range error.
func TestBuildRISCWideFallback(t *testing.T) {
	var code strings.Builder
	code.WriteString("int x;\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&code, "int f%d(int a) { a = a * 3 + 1; a = a - (a / 7); a = a ^ (a << 2); a = a + (a >> 3); return a + x; }\n", i)
	}
	code.WriteString("int main() { x = 1; putint(f0(1)); return 0; }\n")
	for _, src := range []string{
		"int pad[3000]; int a; int main() { a = 1; putint(a); return 0; }",
		code.String(),
	} {
		img, slots, err := BuildRISC(src, Options{Target: RISCWindowed})
		if err != nil {
			t.Fatal(err)
		}
		if _, narrow := img.Symbols["__start"]; narrow {
			t.Error("narrow image for a program out of the gp window")
		}
		res, err := Compile(src, Options{Target: RISCWindowed, WideData: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := asm.Assemble(res.Asm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(img, want) || slots != res.SlotsFilled {
			t.Error("BuildRISC differs from the WideData compile")
		}
	}
}

// TestGenerationErrorsIgnoreAddressing pins what lets BuildRISC retry wide
// without a second error path: a program's narrow and wide generation fail
// alike. The parallel kernels fail generation on the flat target.
func TestGenerationErrorsIgnoreAddressing(t *testing.T) {
	for _, k := range prog.Parallel() {
		p, err := Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		_, _, narrow := generateRISC(p, false, true)
		_, _, wide := generateRISC(p, false, false)
		if narrow == nil || wide == nil || narrow.Error() != wide.Error() {
			t.Errorf("%s on flat: narrow error %v, wide error %v", k.Name, narrow, wide)
		}
	}
}
