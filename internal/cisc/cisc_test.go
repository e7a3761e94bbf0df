package cisc

import (
	"errors"
	"strings"
	"testing"

	"risc1/internal/mem"
)

func runProgram(t *testing.T, src string) *CPU {
	t.Helper()
	img, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(Config{})
	if err := c.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

// Every CX procedure starts with a save mask; main included.
func TestBasicALU(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		movl #10, r1
		addl3 r1, r1, r2        ; 20
		subl3 r2, #5, r3        ; 20-5 = 15? no: subl3 a,b -> a-b = 15
		mull3 r2, #3, r4        ; 60
		divl3 r4, #7, r5        ; 8
		ashl #3, r1, r6         ; 80
		ashl #-2, r6, r7        ; 20
		andl3 r4, #0x3C, r8     ; 60 & 0x3c = 0x3c
		orl3 r8, #1, r9
		xorl3 r9, r9, r10       ; 0
		incl r1                 ; 11
		decl r2                 ; 19
		ret
	`)
	want := map[uint8]uint32{
		1: 11, 2: 19, 3: 15, 4: 60, 5: 8, 6: 80, 7: 20,
		8: 0x3C, 9: 0x3D, 10: 0,
	}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
	if !c.Halted() {
		t.Error("did not halt")
	}
}

func TestMemoryOperands(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		movl #7, @cell
		addl2 #5, @cell         ; memory is a first-class ALU operand
		movl @cell, r1
		moval cell, r2
		movl (r2), r3
		movl #1, 4(r2)
		movl 4(r2), r4
		ret
		.align 4
	cell:	.word 0, 0
	`)
	if c.Reg(1) != 12 || c.Reg(3) != 12 || c.Reg(4) != 1 {
		t.Errorf("r1=%d r3=%d r4=%d; want 12 12 1", c.Reg(1), c.Reg(3), c.Reg(4))
	}
}

func TestIndexedAddressing(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		moval tab, r1
		movl #2, r2
		movl (r1)[r2], r3       ; longword scale: tab[2] = 30
		moval bytes, r4
		movl #1, r5
		movzbl (r4)[r5.b], r6   ; byte scale: bytes[1] = 9
		ret
		.align 4
	tab:	.word 10, 20, 30, 40
	bytes:	.byte 8, 9, 10
	`)
	if c.Reg(3) != 30 || c.Reg(6) != 9 {
		t.Errorf("indexed reads: r3=%d r6=%d; want 30 9", c.Reg(3), c.Reg(6))
	}
}

func TestByteOps(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		movl #0xAABBCCFF, r1
		cvtbl r1, r2            ; sign-extend 0xFF = -1
		movzbl r1, r3           ; 255
		movb #7, @buf
		movzbl @buf, r4
		ret
	buf:	.byte 0
	`)
	if c.Reg(2) != 0xFFFFFFFF || c.Reg(3) != 255 || c.Reg(4) != 7 {
		t.Errorf("r2=%#x r3=%d r4=%d", c.Reg(2), c.Reg(3), c.Reg(4))
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// sum 1..10 with a loop.
	c := runProgram(t, `
	main:	.mask
		clrl r1
		movl #1, r2
	loop:	cmpl r2, #10
		bgt done
		addl2 r2, r1
		incl r2
		br loop
	done:	ret
	`)
	if c.Reg(1) != 55 {
		t.Errorf("sum = %d, want 55", c.Reg(1))
	}
}

func TestUnsignedConditions(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		clrl r1
		movl #-3, r2            ; 0xFFFFFFFD
		cmpl r2, #5
		bhi big                 ; unsigned: 0xFFFFFFFD > 5
		br out
	big:	movl #1, r1
	out:	cmpl r2, #5
		blt neg                 ; signed: -3 < 5
		br fin
	neg:	addl2 #2, r1
	fin:	ret
	`)
	if c.Reg(1) != 3 {
		t.Errorf("condition bits = %d, want 3", c.Reg(1))
	}
}

func TestCallsRetWithMaskAndArgs(t *testing.T) {
	// add3(a, b, c) = a+b+c, args via AP, saved regs restored.
	c := runProgram(t, `
	main:	.mask r2
		movl #111, r2           ; must survive the call
		pushl #30
		pushl #20
		pushl #10               ; arg0 pushed last
		calls #3, add3
		addl3 r0, r2, r1        ; r2 must still be 111 here
		ret
	add3:	.mask r2, r3
		movl 4(ap), r0          ; arg0
		movl #0, r2             ; clobber callee-saved; mask restores
		movl #0, r3
		addl2 8(ap), r0
		addl2 12(ap), r0
		ret
	`)
	// r1 = add3(10,20,30) + r2; r2 still 111 after the call only if
	// add3's RET restored it from the mask save area. (After main's own
	// RET, r2 reverts to its entry-time value — so check via r1.)
	if c.Reg(1) != 171 {
		t.Errorf("r0+r2 = %d, want 171 (mask restore failed?)", c.Reg(1))
	}
	s := c.Stats()
	if s.Calls != 1 || s.Returns != 2 { // add3's ret + main's ret
		t.Errorf("calls=%d returns=%d", s.Calls, s.Returns)
	}
}

func TestRecursionDepth(t *testing.T) {
	// sum(n) = n + sum(n-1) recursively; exercises frames + arg pop.
	c := runProgram(t, `
	main:	.mask
		pushl #30
		calls #1, sum
		movl r0, @0xFFFFFF04    ; console putint
		ret
	sum:	.mask r2
		movl 4(ap), r2
		tstl r2
		bgt rec
		clrl r0
		ret
	rec:	subl3 r2, #1, r0
		pushl r0
		calls #1, sum
		addl2 r2, r0
		ret
	`)
	if c.Console() != "465" {
		t.Errorf("sum(30) printed %q, want 465", c.Console())
	}
	// The entry call into main is not counted, so depth is the explicit
	// calls: sum(30)..sum(0).
	if d := c.Stats().MaxCallDepth; d != 31 {
		t.Errorf("max depth = %d, want 31", d)
	}
}

func TestSubl3Order(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		movl #7, r1
		subl3 r1, #2, r2        ; r2 = 7 - 2
		subl3 #2, r1, r3        ; r3 = 2 - 7
		movl #10, r4
		subl2 #3, r4            ; r4 -= 3
		ret
	`)
	if c.Reg(2) != 5 || c.Reg(3) != uint32(0xFFFFFFFB) || c.Reg(4) != 7 {
		t.Errorf("r2=%d r3=%#x r4=%d", c.Reg(2), c.Reg(3), c.Reg(4))
	}
}

func TestConsoleOutput(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		movl #'h', @0xFFFFFF00
		movl #'i', @0xFFFFFF00
		movl #-5, @0xFFFFFF04
		ret
	`)
	if c.Console() != "hi-5" {
		t.Errorf("console = %q", c.Console())
	}
}

func TestVariableLengthSizes(t *testing.T) {
	// Density check: register ops are tiny, memory/immediate ops longer.
	img := MustAssemble(`
	main:	.mask
		movl r1, r2             ; 1 + 1 + 1 = 3 bytes
		movl #5, r1             ; 1 + 2 + 1 = 4 bytes
		movl #100000, r1        ; 1 + 5 + 1 = 7 bytes
		movl @cell, r1          ; 1 + 5 + 1 = 7 bytes
		incl r1                 ; 2 bytes
		ret                     ; 1 byte
	cell:	.word 0
	`)
	// 2 (mask) + 3 + 4 + 7 + 7 + 2 + 1 = 26, then the word (aligned at 26).
	if img.Size() != 30 {
		t.Errorf("image size = %d, want 30", img.Size())
	}
}

func TestHaltOpcode(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		movl #1, r1
		halt
		movl #2, r1
	`)
	if c.Reg(1) != 1 {
		t.Error("halt did not stop execution")
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	img := MustAssemble(`
	main:	.mask
		clrl r1
		divl3 #4, r1, r2
		ret
	`)
	c := New(Config{})
	c.Load(img)
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestUndefinedOpcodeFaults(t *testing.T) {
	img := MustAssemble("main: .mask\n .byte 0xEE\n")
	c := New(Config{})
	c.Load(img)
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "undefined opcode") {
		t.Errorf("err = %v", err)
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Error("error is not a *cisc.Error")
	}
}

func TestRunawayHitsCycleLimit(t *testing.T) {
	img := MustAssemble("main: .mask\nloop: br loop\n")
	c := New(Config{MaxCycles: 500})
	c.Load(img)
	if err := c.Run(); !errors.Is(err, ErrMaxCycles) {
		t.Errorf("err = %v, want ErrMaxCycles", err)
	}
}

func TestStepAfterHalt(t *testing.T) {
	c := runProgram(t, "main: .mask\n ret\n")
	if err := c.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("err = %v, want ErrHalted", err)
	}
}

func TestMemoryFaultPropagates(t *testing.T) {
	img := MustAssemble(`
	main:	.mask
		movl @0x00F00000, r1    ; far outside 1MiB RAM, below console
		ret
	`)
	c := New(Config{})
	c.Load(img)
	err := c.Run()
	var f *mem.Fault
	if !errors.As(err, &f) {
		t.Errorf("err = %v, want memory fault", err)
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic": "main: frob r1",
		"operand count":    "main: movl r1",
		"imm dest":         "main: movl r1, #5",
		"bad mask reg":     "main: .mask sp",
		"undefined label":  "main: .mask\n br nowhere",
		"redefined label":  "x: .mask\nx: ret",
		"bad count":        "main: calls #999, main",
	}
	for what, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s assembled without error", what)
		}
	}
}

func TestCyclesAccumulate(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		movl #1, r1
		addl2 #1, r1
		ret
	`)
	s := c.Stats()
	if s.Cycles == 0 || s.Instructions != 3 {
		t.Errorf("cycles=%d instructions=%d", s.Cycles, s.Instructions)
	}
	if s.FetchBytes == 0 {
		t.Error("no fetch bytes recorded")
	}
}

func TestMixCategories(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		movl #3, r1
		cmpl r1, #3
		beq ok
	ok:	pushl r1
		calls #1, f
		ret
	f:	.mask
		ret
	`)
	s := c.Stats()
	for _, cat := range []string{"move", "compare", "control", "call"} {
		if s.ByCategory[cat] == 0 {
			t.Errorf("category %q missing from mix: %v", cat, s.ByCategory)
		}
	}
}
