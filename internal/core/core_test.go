package core

import (
	"errors"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/mem"
)

// run assembles src, runs it to completion on cfg, and returns the CPU.
func run(t *testing.T, cfg Config, src string) *CPU {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(cfg)
	if err := c.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

// The console's put-integer port is reachable with a negative 13-bit
// displacement off r0: 0xFFFFFF04 sign-extends from -252.
const putIntDisp = "-252"

func TestArithmeticProgram(t *testing.T) {
	c := run(t, Config{}, `
	main:	add r0,#10,r1
		add r1,r1,r2        ; 20
		sub r2,#5,r3        ; 15
		xor r3,#0xFF,r4
		and r4,#0xF0,r5
		or  r5,#0x01,r6
		sll r1,#3,r7        ; 80
		srl r7,#2,r16       ; 20
		add r0,#-8,r17
		sra r17,#1,r18      ; -4
		ret r25,#8
		nop
	`)
	want := map[uint8]uint32{
		1: 10, 2: 20, 3: 15, 4: 15 ^ 0xFF, 5: (15 ^ 0xFF) & 0xF0,
		6: (15^0xFF)&0xF0 | 1, 7: 80, 16: 20, 18: uint32(0xFFFFFFFC),
	}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("r%d = %d (%#x), want %d", r, got, got, v)
		}
	}
	if !c.Halted() {
		t.Error("machine did not halt")
	}
}

func TestDelayedBranch(t *testing.T) {
	c := run(t, Config{}, `
	main:	add r0,#1,r1
		b over
		add r0,#2,r2        ; delay slot: must execute
		add r0,#3,r3        ; skipped by the branch
	over:	add r0,#4,r4
		ret r25,#8
		nop
	`)
	if c.Reg(2) != 2 {
		t.Error("delay-slot instruction did not execute")
	}
	if c.Reg(3) != 0 {
		t.Error("branch target was not honored (skipped instruction ran)")
	}
	if c.Reg(4) != 4 {
		t.Error("instruction at branch target did not run")
	}
}

func TestUntakenConditionalFallsThrough(t *testing.T) {
	c := run(t, Config{}, `
	main:	cmp r0,#1
		beq never
		add r0,#7,r1        ; delay slot
		add r0,#9,r2        ; fall-through continues
		ret r25,#8
		nop
	never:	add r0,#99,r3
		ret r25,#8
		nop
	`)
	if c.Reg(1) != 7 || c.Reg(2) != 9 || c.Reg(3) != 0 {
		t.Errorf("r1=%d r2=%d r3=%d; want 7 9 0", c.Reg(1), c.Reg(2), c.Reg(3))
	}
	s := c.Stats()
	if s.Transfers < 2 { // beq (untaken) + ret
		t.Errorf("Transfers = %d, want >= 2", s.Transfers)
	}
}

func TestConditionSuite(t *testing.T) {
	// Each pair (a, b) is compared and one bit per true condition is OR-ed
	// into r1 so a single run checks all signed/unsigned conditions.
	c := run(t, Config{}, `
	main:	add r0,#0,r1
		add r0,#-3,r2       ; a = -3
		add r0,#5,r3        ; b = 5
		cmp r2,r3
		blt signed_lt
		nop
		b after1
		nop
	signed_lt: or r1,#1,r1
	after1:	cmp r2,r3
		bhis unsigned_ge    ; 0xFFFFFFFD >= 5 unsigned
		nop
		b after2
		nop
	unsigned_ge: or r1,#2,r1
	after2:	cmp r3,r3
		beq equal
		nop
		b after3
		nop
	equal:	or r1,#4,r1
	after3:	ret r25,#8
		nop
	`)
	if c.Reg(1) != 7 {
		t.Errorf("condition bits = %#x, want 0x7", c.Reg(1))
	}
}

// sumProgram computes sum(n) = n + sum(n-1) recursively through register
// windows: the canonical RISC I procedure-call exercise.
func sumProgram(n int) string {
	return `
	main:	add r0,#` + itoa(n) + `,r10
		callr r25,sum
		nop
		stl r10,(r0)#` + putIntDisp + `
		ret r25,#8
		nop
	sum:	cmp r26,#0
		bgt rec
		nop
		add r0,#0,r26
		ret r25,#8
		nop
	rec:	sub r26,#1,r10
		callr r25,sum
		nop
		add r26,r10,r26
		ret r25,#8
		nop
	`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestWindowedCallChain(t *testing.T) {
	c := run(t, Config{}, sumProgram(5))
	if got := c.Console(); got != "15" {
		t.Errorf("sum(5) printed %q, want 15", got)
	}
	s := c.Stats()
	if s.Calls != 6 || s.Returns != 6 {
		t.Errorf("calls=%d returns=%d, want 6 each", s.Calls, s.Returns)
	}
	if s.MaxCallDepth != 6 {
		t.Errorf("max depth = %d, want 6", s.MaxCallDepth)
	}
	if s.WindowOverflow != 0 || s.WindowUnderflow != 0 {
		t.Errorf("unexpected window traps: ovf=%d unf=%d", s.WindowOverflow, s.WindowUnderflow)
	}
}

func TestWindowOverflowUnderflow(t *testing.T) {
	c := run(t, Config{Windows: 8}, sumProgram(30))
	if got := c.Console(); got != "465" {
		t.Fatalf("sum(30) printed %q, want 465", got)
	}
	s := c.Stats()
	// Depth reaches 31 (main + sum(30)..sum(0)); with 8 windows the
	// pure descent spills depth-(N-2) = 25 windows... the first N-2
	// activations fit. Spills happen on calls 7..31.
	wantSpill := uint64(31 - (8 - 2))
	if s.WindowOverflow != wantSpill || s.WindowUnderflow != wantSpill {
		t.Errorf("ovf=%d unf=%d, want %d each", s.WindowOverflow, s.WindowUnderflow, wantSpill)
	}
}

func TestWindowCountChangesTrapRate(t *testing.T) {
	trapCount := func(windows int) uint64 {
		c := run(t, Config{Windows: windows}, sumProgram(30))
		if c.Console() != "465" {
			t.Fatalf("windows=%d: wrong result %q", windows, c.Console())
		}
		return c.Stats().WindowOverflow
	}
	small, large := trapCount(3), trapCount(16)
	if small <= large {
		t.Errorf("3 windows should trap more than 16: %d vs %d", small, large)
	}
	if huge := trapCount(40); huge != 0 {
		t.Errorf("40 windows still trapped %d times on depth 31", huge)
	}
}

func TestFlatModeCallsDontSlide(t *testing.T) {
	// Note the save/restore of r25 around the call: in flat mode the call
	// overwrites the caller's link register — the very overhead register
	// windows exist to remove.
	c := run(t, Config{Flat: true}, `
	main:	sub r9,#4,r9
		stl r25,(r9)#0
		add r0,#42,r10
		callr r25,f
		nop
		ldl (r9)#0,r25
		add r9,#4,r9
		ret r25,#8
		nop
	f:	add r10,#0,r11      ; flat: callee sees the same r10
		ret r25,#8
		nop
	`)
	if c.Reg(11) != 42 {
		t.Errorf("flat callee read r10 = %d, want 42", c.Reg(11))
	}
	if s := c.Stats(); s.WindowOverflow != 0 || s.WindowUnderflow != 0 {
		t.Error("flat mode took window traps")
	}
}

func TestFlatModeLinkClobbered(t *testing.T) {
	// In flat mode the nested call overwrites r25; the hand-written code
	// here saves it on the data stack, exactly what the flat compiler
	// backend must do.
	c := run(t, Config{Flat: true}, `
	main:	sub r9,#4,r9
		stl r25,(r9)#0
		add r0,#3,r10
		callr r25,outer
		nop
		stl r10,(r0)#`+putIntDisp+`
		ldl (r9)#0,r25
		add r9,#4,r9
		ret r25,#8
		nop
	outer:	sub r9,#4,r9
		stl r25,(r9)#0
		callr r25,leaf
		nop
		ldl (r9)#0,r25
		add r9,#4,r9
		ret r25,#8
		nop
	leaf:	add r10,#1,r10
		ret r25,#8
		nop
	`)
	if c.Console() != "4" {
		t.Errorf("printed %q, want 4", c.Console())
	}
}

func TestMemoryWidths(t *testing.T) {
	c := run(t, Config{}, `
	main:	la data,r1
		ldl (r1)#0,r2
		ldsu (r1)#4,r3
		ldss (r1)#4,r4
		ldbu (r1)#6,r5
		ldbs (r1)#6,r6
		add r0,#-1,r7
		sts r7,(r1)#8
		stb r7,(r1)#11
		ldl (r1)#8,r16
		ret r25,#8
		nop
		.align 4
	data:	.word 0x01020304
		.half 0x8001
		.byte 0xFF, 0
		.word 0
	`)
	checks := map[uint8]uint32{
		2:  0x01020304,
		3:  0x8001,             // zero-extended halfword
		4:  uint32(0xFFFF8001), // sign-extended halfword
		5:  0xFF,               // zero-extended byte
		6:  uint32(0xFFFFFFFF), // sign-extended byte
		16: 0xFFFF00FF,         // halfword + byte stores merged
	}
	for r, v := range checks {
		if got := c.Reg(r); got != v {
			t.Errorf("r%d = %#x, want %#x", r, got, v)
		}
	}
}

func TestLdhiMaterialization(t *testing.T) {
	c := run(t, Config{}, `
	main:	li #0xDEADBEEF,r1
		li #305419896,r2    ; 0x12345678
		ret r25,#8
		nop
	`)
	if c.Reg(1) != 0xDEADBEEF || c.Reg(2) != 0x12345678 {
		t.Errorf("li produced %#x, %#x", c.Reg(1), c.Reg(2))
	}
}

func TestPSWAccess(t *testing.T) {
	c := run(t, Config{}, `
	main:	cmp r0,#0           ; Z=1
		getpsw r1
		putpsw r0,#0        ; clear everything (incl. IE)
		getpsw r2
		putpsw r0,#0x105    ; C, N, IE
		getpsw r3
		ret r25,#8
		nop
	`)
	if c.Reg(1)&0x8 == 0 {
		t.Errorf("Z bit not visible in PSW: %#x", c.Reg(1))
	}
	if c.Reg(2) != 0 {
		t.Errorf("PSW after clear = %#x, want 0", c.Reg(2))
	}
	if c.Reg(3)&0x1FF != 0x105 {
		t.Errorf("PSW after set = %#x, want low bits 0x105", c.Reg(3))
	}
	if f := c.Flags(); !f.C || !f.N || f.Z || f.V {
		t.Errorf("flags after putpsw = %+v", f)
	}
}

func TestGTLPC(t *testing.T) {
	c := run(t, Config{}, `
	main:	nop                 ; pc 0
		gtlpc r1            ; pc 4: lastPC = 0
		ret r25,#8
		nop
	`)
	if c.Reg(1) != 0 {
		t.Errorf("gtlpc = %#x, want 0", c.Reg(1))
	}
}

func TestInterruptRoundTrip(t *testing.T) {
	img := asm.MustAssemble(`
	main:	add r0,#1,r1
		add r1,#1,r1
		add r1,#1,r1
		add r1,#1,r1
		ret r25,#8
		nop
		.align 4
	handler: callint r16        ; r16 := PC of the interrupted instruction
		add r0,#77,r2       ; handler work (r2 is per-window... use global)
		add r0,#77,r5       ; global survives the window slide
		retint r16,#0       ; resume exactly where the interrupt hit
		nop
	`)
	c := New(Config{})
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	// Step twice, then interrupt.
	for i := 0; i < 2; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	vec, _ := img.Symbol("handler")
	c.Interrupt(vec)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Reg(1) != 4 {
		t.Errorf("r1 = %d after resume, want 4 (all increments ran)", c.Reg(1))
	}
	if c.Reg(5) != 77 {
		t.Error("handler did not run")
	}
}

// TestInterruptAtEveryBoundary interrupts a branch-heavy loop after every
// possible number of steps and requires the computation to finish with the
// same result regardless — the acid test for interrupt delivery around
// delayed branches (a resume address captured mid-branch would corrupt it).
func TestInterruptAtEveryBoundary(t *testing.T) {
	src := `
	main:	add r0,#0,r1
	loop:	add r1,#1,r1
		cmp r1,#50
		blt loop
		nop
		stl r1,(r0)#-252
		ret r25,#8
		nop
		.align 4
	handler: callint r16
		add r5,#1,r5        ; count interrupts in a global
		retint r16,#0
		nop
	`
	img := asm.MustAssemble(src)
	vec, _ := img.Symbol("handler")
	for steps := 1; steps < 60; steps++ {
		c := New(Config{})
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps && !c.Halted(); i++ {
			if err := c.Step(); err != nil {
				t.Fatalf("steps=%d: %v", steps, err)
			}
		}
		if !c.Halted() {
			c.Interrupt(vec)
		}
		if err := c.Run(); err != nil {
			t.Fatalf("steps=%d: %v", steps, err)
		}
		if got := c.Console(); got != "50" {
			t.Fatalf("interrupt after %d steps corrupted the loop: printed %q", steps, got)
		}
		if !c.Halted() {
			t.Fatalf("steps=%d: did not halt", steps)
		}
	}
}

func TestCWPVisibleInPSW(t *testing.T) {
	c := run(t, Config{}, `
	main:	getpsw r1
		callr r25,f
		nop
		ret r25,#8
		nop
	f:	getpsw r5           ; global: visible after return
		ret r25,#8
		nop
	`)
	cwpMain := c.Reg(1) >> 16 & 0xFF
	cwpCallee := c.Reg(5) >> 16 & 0xFF
	if cwpCallee != cwpMain+1 {
		t.Errorf("CWP in callee = %d, in main = %d; want +1", cwpCallee, cwpMain)
	}
}

func TestIllegalInstruction(t *testing.T) {
	img := asm.MustAssemble("main: .word 0\n")
	c := New(Config{})
	c.Load(img)
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "undefined opcode") {
		t.Errorf("err = %v, want undefined opcode", err)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.PC != 0 {
		t.Errorf("fault PC = %v", err)
	}
}

func TestMisalignedLoadFaults(t *testing.T) {
	img := asm.MustAssemble("main: ldl (r0)#2,r1\n nop\n")
	c := New(Config{})
	c.Load(img)
	err := c.Run()
	var f *mem.Fault
	if !errors.As(err, &f) || !f.Misalign {
		t.Errorf("err = %v, want misalignment fault", err)
	}
}

func TestRunawayProgramHitsCycleLimit(t *testing.T) {
	img := asm.MustAssemble("main: b main\n nop\n")
	c := New(Config{MaxCycles: 1000})
	c.Load(img)
	err := c.Run()
	if !errors.Is(err, ErrMaxCycles) {
		t.Errorf("err = %v, want ErrMaxCycles", err)
	}
}

func TestSaveStackOverflow(t *testing.T) {
	// Recursion depth 200 with a save stack that only fits 4 windows.
	img := asm.MustAssemble(sumProgram(200))
	c := New(Config{Windows: 4, SaveStackBytes: 256})
	c.Load(img)
	err := c.Run()
	if !errors.Is(err, ErrSaveStackFull) {
		t.Errorf("err = %v, want ErrSaveStackFull", err)
	}
}

func TestStepAfterHalt(t *testing.T) {
	c := run(t, Config{}, "main: ret r25,#8\n nop\n")
	if err := c.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after halt = %v, want ErrHalted", err)
	}
}

func TestReturnBelowInitialWindow(t *testing.T) {
	// A return whose target is a real address (not the halt sentinel)
	// from the initial window must fault, not panic.
	img := asm.MustAssemble(`
	main:	add r0,#16,r16
		ret r16,#0
		nop
		nop
		nop
	`)
	c := New(Config{})
	c.Load(img)
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "below the initial window") {
		t.Errorf("err = %v", err)
	}
}

func TestCycleAccounting(t *testing.T) {
	c := run(t, Config{}, `
	main:	add r0,#1,r1        ; 1 cycle
		add r1,#2,r2        ; 1
		stl r2,(r9)#-4      ; 2
		ldl (r9)#-4,r3      ; 2
		ret r25,#8          ; 1
		nop                 ; not executed: halt short-circuits
	`)
	if got := c.Stats().Cycles; got != 7 {
		t.Errorf("cycles = %d, want 7", got)
	}
}

func TestDelaySlotAccounting(t *testing.T) {
	c := run(t, Config{}, `
	main:	b one
		nop                 ; wasted slot
	one:	b two
		add r0,#1,r1        ; useful slot
	two:	ret r25,#8
		nop
	`)
	s := c.Stats()
	if s.DelaySlotNops != 1 || s.DelaySlotUseful != 1 {
		t.Errorf("slots: nop=%d useful=%d, want 1 and 1", s.DelaySlotNops, s.DelaySlotUseful)
	}
}

func TestStatsMix(t *testing.T) {
	c := run(t, Config{}, sumProgram(10))
	s := c.Stats()
	if s.ByCategory["control"] == 0 || s.ByCategory["alu"] == 0 {
		t.Errorf("category mix incomplete: %v", s.ByCategory)
	}
	if s.FetchBytes != s.Instructions*4 {
		t.Errorf("fetch bytes %d != 4 * %d instructions", s.FetchBytes, s.Instructions)
	}
	if s.DataBytes() == 0 {
		t.Error("no data traffic recorded despite console store")
	}
}

func TestJMPRegisterForm(t *testing.T) {
	c := run(t, Config{}, `
	main:	la target,r1
		jmp alw,(r1)#0
		nop
		add r0,#1,r2        ; skipped
	target:	add r0,#2,r3
		ret r25,#8
		nop
	`)
	if c.Reg(2) != 0 || c.Reg(3) != 2 {
		t.Errorf("register-indirect jump failed: r2=%d r3=%d", c.Reg(2), c.Reg(3))
	}
}
