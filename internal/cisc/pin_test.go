package cisc

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"risc1/internal/cc"
	"risc1/internal/mem"
	"risc1/internal/prog"
	"risc1/internal/stats"
)

// compileSuite compiles the 13 suite kernels for CX, in suite order.
func compileSuite(t testing.TB) []*Image {
	t.Helper()
	var imgs []*Image
	for _, b := range prog.All() {
		res, err := cc.Compile(b.Source, cc.Options{Target: cc.CISC})
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		img, err := Assemble(res.Asm)
		if err != nil {
			t.Fatalf("%s: assemble: %v", b.Name, err)
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// renderStats prints every Stats field, one per line, so a pin covers
// fields added later without editing the renderer.
func renderStats(s *stats.Stats) string {
	var b strings.Builder
	v := reflect.ValueOf(*s)
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(&b, "  %s: %v\n", v.Type().Field(i).Name, v.Field(i).Interface())
	}
	return b.String()
}

// renderOutcome prints how a run ended (its RunError in full, or "ok" with
// the console) followed by its Stats.
func renderOutcome(c *CPU, err error) string {
	var b strings.Builder
	var re *RunError
	switch {
	case err == nil:
		fmt.Fprintf(&b, "  ok: console %q\n", c.Console())
	case errors.As(err, &re):
		fmt.Fprintf(&b, "  fault: pc %#x inst %q cycles %d\n  regs: %v\n  err: %v\n",
			re.PC, re.Inst, re.Cycles, re.Regs, re.Err)
	default:
		fmt.Fprintf(&b, "  error: %v\n", err)
	}
	b.WriteString(renderStats(c.Stats()))
	return b.String()
}

// faultCase is a program that faults mid-instruction. patch, when set,
// edits the assembled image before loading (to encode what the assembler
// refuses to); plan, when set, arms a fault plan after loading.
type faultCase struct {
	name  string
	src   string
	patch func(img *Image)
	plan  func(img *Image) *mem.FaultPlan
}

// cxFaultCases each fault once on an instruction's first execution and
// once on a later execution of an instruction that already ran.
var cxFaultCases = []faultCase{
	{name: "operand 2 of 3, first execution", src: `
	main:	.mask
		movl #1, r1
		movl #0x00F00000, r2
		addl3 r1, (r2), r3
		ret
	`},
	{name: "operand 2 of 3, repeated execution", src: `
	main:	.mask
		movl #1, r1
		moval cell, r2
		movl #2, r4
	loop:	addl3 r1, (r2), r3
		movl #0x00F00000, r2
		decl r4
		bne loop
		ret
		.align 4
	cell:	.word 5
	`},
	{name: "divide by zero, first execution", src: `
	main:	.mask
		movl #9, r1
		clrl r5
		divl3 r1, r5, r6
		ret
	`},
	{name: "divide by zero, repeated execution", src: `
	main:	.mask
		movl #9, r1
		movl #2, r5
	loop:	decl r5
		divl3 r1, r5, r6
		br loop
	`},
	{name: "undefined specifier register", src: `
	main:	.mask
		movl #3, r1
		movl #2, r4
	loop:	addl3 #1, r1, r2
		decl r4
		bne loop
		ret
	`, patch: func(img *Image) {
		// Re-point the destination specifier (register mode, last byte
		// of the addl3) at r15, which the register file does not have.
		at := img.Symbols["loop"] - img.Org + 4
		img.Bytes[at] = byte(modeReg)<<4 | 15
	}},
	{name: "undefined index register", src: `
	main:	.mask
		moval cell, r1
		clrl r2
	ld:	movl (r1)[r2], r3
		ret
		.align 4
	cell:	.word 5
	`, patch: func(img *Image) {
		// The index byte follows the (r1) specifier.
		img.Bytes[img.Symbols["ld"]-img.Org+2] = 15
	}},
	{name: "fetch fault inside operand 3", src: `
	main:	.mask
		movl #1, r1
		moval cell, r2
	pf:	addl3 r1, (r2), @cell
		ret
		.align 4
	cell:	.word 5
	`, plan: func(img *Image) *mem.FaultPlan {
		// Poison the last two bytes of the @cell extension.
		at := img.Symbols["pf"] + 6
		return &mem.FaultPlan{PoisonLo: at, PoisonHi: at + 2, PoisonFetch: true}
	}},
}

// TestCXSuiteStatsPinned pins every Stats field of the 13 suite kernels on
// CX, plus the RunError and Stats of faults raised mid-instruction: a
// data fault on an operand, FailNthRead, divide by zero and undefined
// specifier registers. The golden was rendered by the byte-at-a-time
// decoder; any faster decode path must reproduce it exactly, including
// the partial FetchBytes and microcycles charged before a fault.
func TestCXSuiteStatsPinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/stats.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := cxPinReport(t); got != string(golden) {
		t.Errorf("CX stats differ from testdata/stats.golden:\n got:\n%s\nwant:\n%s", got, golden)
	}
}

// cxPinReport renders the outcome and Stats of every pinned run.
func cxPinReport(t *testing.T) string {
	var b strings.Builder
	kernels := prog.All()
	imgs := compileSuite(t)
	for i, img := range imgs {
		c := New(Config{})
		if err := c.Load(img); err != nil {
			t.Fatalf("%s: load: %v", kernels[i].Name, err)
		}
		err := c.Run()
		fmt.Fprintf(&b, "== %s\n%s", kernels[i].Name, renderOutcome(c, err))
	}
	// FailNthRead deep into two kernels, where every instruction on the
	// hot path has executed before.
	for _, k := range []struct {
		name string
		nth  uint64
	}{{"sieve", 20000}, {"qsort", 3333}} {
		for i, kb := range kernels {
			if kb.Name != k.name {
				continue
			}
			c := New(Config{})
			if err := c.Load(imgs[i]); err != nil {
				t.Fatal(err)
			}
			c.Mem.SetFaultPlan(&mem.FaultPlan{FailNthRead: k.nth})
			err := c.Run()
			fmt.Fprintf(&b, "== %s, FailNthRead %d\n%s", k.name, k.nth, renderOutcome(c, err))
		}
	}
	for _, fc := range cxFaultCases {
		img, err := Assemble(fc.src)
		if err != nil {
			t.Fatalf("%s: assemble: %v", fc.name, err)
		}
		if fc.patch != nil {
			fc.patch(img)
		}
		c := New(Config{})
		if err := c.Load(img); err != nil {
			t.Fatalf("%s: load: %v", fc.name, err)
		}
		if fc.plan != nil {
			c.Mem.SetFaultPlan(fc.plan(img))
		}
		err = c.Run()
		if err == nil {
			t.Errorf("%s: ran to completion, want a fault", fc.name)
		}
		fmt.Fprintf(&b, "== %s\n%s", fc.name, renderOutcome(c, err))
	}
	return b.String()
}
