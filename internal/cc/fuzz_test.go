package cc_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/lint"
	"risc1/internal/prog"
)

// FuzzCompileCm feeds arbitrary Cm source through the whole front end: the
// parser, the RISC build (windowed and flat: generation, delay-slot
// filling, assembly, the wide retry), the CISC compile and assembly, and
// the analyzer on every image that builds, as LintImage runs it. None of
// them may panic. Compiling is a function of the source alone, so a second
// build of the same source must give identical bytes, or the identical
// error.
func FuzzCompileCm(f *testing.F) {
	for _, k := range append(prog.All(), prog.Parallel()...) {
		f.Add(k.Source)
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		f.Add(randomProgram(r))
	}
	f.Add("int A(){")
	// Nested indexing pins one register a level, past the free registers.
	f.Add("int *p; int main() { putint(" + strings.Repeat("p[", 20) + "0" + strings.Repeat("]", 20) + "); return 0; }")
	f.Add("int main() { putint((((1)))); return 0; }")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := cc.Parse(src); err != nil {
			return
		}
		for _, target := range []cc.Target{cc.RISCWindowed, cc.RISCFlat} {
			img, slots, err := cc.BuildRISC(src, cc.Options{Target: target})
			img2, slots2, err2 := cc.BuildRISC(src, cc.Options{Target: target})
			if !sameError(err, err2) || slots != slots2 || !reflect.DeepEqual(img, img2) {
				t.Fatalf("%v: two builds differ: %v / %v", target, err, err2)
			}
			if err == nil {
				lint.Check(img, lint.Options{Flat: target == cc.RISCFlat})
				lint.Check(img, lint.Options{Flat: target == cc.RISCFlat, SMP: true})
			}
		}
		res, err := cc.Compile(src, cc.Options{Target: cc.CISC})
		res2, err2 := cc.Compile(src, cc.Options{Target: cc.CISC})
		if !sameError(err, err2) || !reflect.DeepEqual(res, res2) {
			t.Fatalf("cisc: two compiles differ: %v / %v", err, err2)
		}
		if err != nil {
			return
		}
		if img, err := cisc.Assemble(res.Asm); err == nil {
			lint.CheckCISC(img)
		}
	})
}

// sameError reports whether two errors are both nil or print the same.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
