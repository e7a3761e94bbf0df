package asm

import (
	"strings"
	"testing"
	"testing/quick"

	"risc1/internal/isa"
)

func decode(t *testing.T, img *Image, off int) isa.Inst {
	t.Helper()
	b := img.Bytes[off:]
	w := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	inst, err := isa.Decode(w)
	if err != nil {
		t.Fatalf("decode at %d: %v", off, err)
	}
	return inst
}

func TestBasicInstructions(t *testing.T) {
	img := MustAssemble(`
		add r1,r2,r3
		sub! r4,#-7,r5
		ldl (r2)#8,r6
		stb r7,(r9)r3
		jmp eq,(r2)#0
		ret r25,#8
		ldhi r5,#1000
		getpsw r1
	`)
	want := []string{
		"add r1,r2,r3",
		"sub! r4,#-7,r5",
		"ldl (r2)#8,r6",
		"stb r7,(r9)r3",
		"jmp eq,(r2)#0",
		"ret r25,#8",
		"ldhi r5,#1000",
		"getpsw r1",
	}
	if len(img.Bytes) != 4*len(want) {
		t.Fatalf("image size %d, want %d", len(img.Bytes), 4*len(want))
	}
	for i, w := range want {
		if got := decode(t, img, 4*i).String(); got != w {
			t.Errorf("inst %d = %q, want %q", i, got, w)
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	img := MustAssemble(`
	start:	add r0,#1,r1
	loop:	sub! r1,#10,r0
		beq done
		nop
		b loop
		nop
	done:	ret r25,#8
	`)
	// beq at offset 8 targets done at offset 24: delta 16.
	beq := decode(t, img, 8)
	if beq.Op != isa.OpJMPR || beq.Cond() != isa.CondEQ || beq.Imm19 != 16 {
		t.Errorf("beq = %v (imm %d)", beq, beq.Imm19)
	}
	// b at offset 16 targets loop at offset 4: delta -12.
	b := decode(t, img, 16)
	if b.Cond() != isa.CondALW || b.Imm19 != -12 {
		t.Errorf("b loop = %v (imm %d)", b, b.Imm19)
	}
	if addr, ok := img.Symbol("done"); !ok || addr != 24 {
		t.Errorf("symbol done = %d, %v", addr, ok)
	}
	// Entry defaults to "start" when there is no "main".
	if img.Entry != 0 {
		t.Errorf("entry = %d, want 0", img.Entry)
	}
}

func TestCallRelative(t *testing.T) {
	img := MustAssemble(`
	main:	callr r25,f
		nop
		ret r25,#8
	f:	ret r25,#8
	`)
	call := decode(t, img, 0)
	if call.Op != isa.OpCALLR || call.Rd != 25 || call.Imm19 != 12 {
		t.Errorf("callr = %v (imm %d)", call, call.Imm19)
	}
	if img.Entry != 0 {
		t.Errorf("entry = %d", img.Entry)
	}
}

func TestOrgAndEntry(t *testing.T) {
	img := MustAssemble(`
		.org 0x1000
		.entry go
		nop
	go:	nop
	`)
	if img.Org != 0x1000 || img.Entry != 0x1004 {
		t.Errorf("org=%#x entry=%#x", img.Org, img.Entry)
	}
}

func TestDataDirectives(t *testing.T) {
	img := MustAssemble(`
		.word 0x11223344, -1
		.half 0x5566
		.byte 1,2
		.align 4
		.asciz "hi\n"
		.align 4
	tab:	.space 8
		.word tab
	`)
	b := img.Bytes
	if b[0] != 0x11 || b[3] != 0x44 || b[4] != 0xFF || b[7] != 0xFF {
		t.Errorf(".word bytes wrong: % x", b[:8])
	}
	if b[8] != 0x55 || b[9] != 0x66 || b[10] != 1 || b[11] != 2 {
		t.Errorf(".half/.byte wrong: % x", b[8:12])
	}
	if string(b[12:16]) != "hi\n\x00" {
		t.Errorf(".asciz wrong: %q", b[12:16])
	}
	tab, _ := img.Symbol("tab")
	if tab != 16 {
		t.Fatalf("tab = %d", tab)
	}
	// .word tab at offset 24 holds 16.
	if b[24] != 0 || b[27] != 16 {
		t.Errorf(".word tab = % x", b[24:28])
	}
}

func TestEqu(t *testing.T) {
	img := MustAssemble(`
		.equ size, 40
		add r0,#size,r1
		add r0,#size+2,r1
	`)
	if got := decode(t, img, 0); got.Imm13 != 40 {
		t.Errorf("equ value = %d", got.Imm13)
	}
	// .equ names substitute inside expressions too... (sym+N form)
	if got := decode(t, img, 4); got.Imm13 != 42 {
		t.Errorf("equ+2 value = %d", got.Imm13)
	}
}

func TestPseudoLi(t *testing.T) {
	img := MustAssemble(`
		li #5,r1
		li #100000,r2
		li #-100000,r3
		li #0x80000000,r4
	`)
	// Small li is one add.
	if got := decode(t, img, 0); got.Op != isa.OpADD || got.Imm13 != 5 {
		t.Errorf("small li = %v", got)
	}
	// Each big li is ldhi+add; verify the arithmetic identity.
	checkPair := func(off int, want uint32) {
		hi := decode(t, img, off)
		lo := decode(t, img, off+4)
		if hi.Op != isa.OpLDHI || lo.Op != isa.OpADD {
			t.Fatalf("li pair at %d = %v / %v", off, hi, lo)
		}
		got := uint32(hi.Imm19&0x7FFFF)<<13 + uint32(lo.Imm13)
		if got != want {
			t.Errorf("li at %d materializes %#x, want %#x", off, got, want)
		}
	}
	checkPair(4, 100000)
	checkPair(12, uint32(0xFFFE795F+1)) // -100000
	checkPair(20, 0x80000000)
}

func TestSplitHiLoProperty(t *testing.T) {
	f := func(v uint32) bool {
		hi, lo := splitHiLo(v)
		if lo < isa.MinImm13 || lo > isa.MaxImm13 || hi < isa.MinImm19 || hi > isa.MaxImm19 {
			return false
		}
		return uint32(hi&0x7FFFF)<<13+uint32(lo) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLa(t *testing.T) {
	img := MustAssemble(`
		la msg,r1
		nop
	msg:	.asciz "x"
	`)
	hi := decode(t, img, 0)
	lo := decode(t, img, 4)
	if got := uint32(hi.Imm19&0x7FFFF)<<13 + uint32(lo.Imm13); got != 12 {
		t.Errorf("la materializes %d, want 12", got)
	}
}

func TestComments(t *testing.T) {
	img := MustAssemble(`
		; full line comment
		add r1,r2,r3  ; trailing
		// slash comment
		nop // another
	`)
	if len(img.Bytes) != 8 {
		t.Errorf("image size %d, want 8", len(img.Bytes))
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"undefined symbol":  "b nowhere",
		"redefined":         "x: nop\nx: nop",
		"bad operands":      "add r1,r2",
		"unknown mnemonic":  "frob r1",
		"13-bit range":      "add r0,#5000,r1",
		"19-bit range":      "ldhi r1,#300000",
		"unknown directive": ".bogus 3",
		"bad condition":     "jmpr zz,#0",
		"redefined equ":     ".equ a,1\n.equ a,2",
		"org twice":         ".org 0\n.org 4",
		"org after code":    "nop\n.org 16",
		"entry undefined":   ".entry nowhere\nnop",
		"unbalanced":        "ldl (r2,r3",
	}
	for what, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: assembled without error:\n%s", what, src)
		}
	}
}

func TestErrorListAggregates(t *testing.T) {
	_, err := Assemble("frob r1\nfrob r2\n")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "2 assembly errors") {
		t.Errorf("error = %v, want aggregate of 2", err)
	}
}

func TestBranchOutOfRange(t *testing.T) {
	var b strings.Builder
	b.WriteString("b far\n")
	for i := 0; i < 70000; i++ {
		b.WriteString("nop\n")
	}
	b.WriteString("far: nop\n")
	if _, err := Assemble(b.String()); err == nil {
		t.Error("branch beyond ±256KB assembled")
	}
}

func TestDisassembleListing(t *testing.T) {
	img := MustAssemble("main: add r1,r2,r3\n .word 0\n")
	out := Disassemble(img)
	for _, want := range []string{"main:", "add r1,r2,r3", ".word 0x00000000"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestCharLiterals(t *testing.T) {
	img := MustAssemble(`add r0,#'a',r1` + "\n" + `add r0,#'\n',r2`)
	if got := decode(t, img, 0); got.Imm13 != 'a' {
		t.Errorf("char literal = %d", got.Imm13)
	}
	if got := decode(t, img, 4); got.Imm13 != '\n' {
		t.Errorf("escaped char literal = %d", got.Imm13)
	}
}

func TestMovCmpNop(t *testing.T) {
	img := MustAssemble("mov r3,r4\ncmp r1,#5\nnop")
	mv := decode(t, img, 0)
	if mv.Op != isa.OpADD || mv.Rs1 != 3 || mv.Rd != 4 || !mv.Imm || mv.Imm13 != 0 {
		t.Errorf("mov = %v", mv)
	}
	cm := decode(t, img, 4)
	if cm.Op != isa.OpSUB || !cm.SCC || cm.Rd != 0 || cm.Imm13 != 5 {
		t.Errorf("cmp = %v", cm)
	}
	np := decode(t, img, 8)
	if np.Op != isa.OpADD || np.Rd != 0 || np.Rs1 != 0 || !np.Imm || np.Imm13 != 0 {
		t.Errorf("nop = %v", np)
	}
}

// TestNumbersStopAt32Bits checks a literal must fit 32 bits: 2^32 used to
// pass the bound and wrap to 0.
func TestNumbersStopAt32Bits(t *testing.T) {
	img := MustAssemble(".word 4294967295, -2147483648\n")
	if got := img.Bytes; string(got) != "\xff\xff\xff\xff\x80\x00\x00\x00" {
		t.Errorf("largest literals assembled to % x", got)
	}
	for _, src := range []string{
		".word 4294967296",
		".word -4294967296",
		"li #4294967296,r10",
		"add r0,#4294967296,r1",
		".word 0x100000000",
		".equ big, 4294967296",
	} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q assembled", src)
		}
	}
}
