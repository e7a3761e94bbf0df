package cisc

import "testing"

// TestSelfModifyingCode overwrites the immediate byte of an instruction the
// CPU has already executed (and therefore memoized), re-executes it, and
// checks the new value is used. Without write-watch invalidation the memo
// would replay the stale "addl2 #7, r1" forever.
func TestSelfModifyingCode(t *testing.T) {
	c := runProgram(t, `
	main:	.mask
		clrl r1
		moval patch, r3
	patch:	addl2 #7, r1        ; encoded [op][imm8 spec][07][r1 spec]
		cmpl r1, #7
		bne done            ; after the patch r1 jumps past 7
		movb #99, 2(r3)     ; overwrite the immediate byte
		br patch            ; re-execute the patched instruction
	done:	ret
	`)
	if got := c.Reg(1); got != 7+99 {
		t.Errorf("r1 = %d, want 106 (patched immediate was not used)", got)
	}
}

// TestMemoInvalidationLastByte pins the write-watch window's boundary: a
// store landing exactly on the LAST byte of a memoized maximum-length
// (maxInstBytes) instruction. The suspect window reaches back
// maxInstBytes-1 bytes before the store, so the entry at the instruction's
// start is the very first index it covers — an off-by-one there would
// replay the stale bytes forever. The 16-byte instruction is addl3 with
// two 32-bit immediates and an absolute destination; the patch rewrites
// the final byte (the low byte of the big-endian @res1 extension) to
// redirect the result into res2.
func TestMemoInvalidationLastByte(t *testing.T) {
	const src = `
	main:	.mask
		clrl r5
		moval patch, r3
		moval res2, r4
	patch:	addl3 #1000000, #2000000, @res1
	after:	cmpl r5, #1
		beq done
		movl #1, r5
		movb r4, 15(r3)
		br patch
	done:	movl @res1, r6
		movl @res2, r7
		ret
		.align 4
	res1:	.word 0
	res2:	.word 0
	`
	img, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	patch, after := img.Symbols["patch"], img.Symbols["after"]
	if got := after - patch; got != maxInstBytes {
		t.Fatalf("patched instruction spans %d bytes, want maxInstBytes (%d)", got, maxInstBytes)
	}
	res1, res2 := img.Symbols["res1"], img.Symbols["res2"]
	if (res1^res2)&^uint32(0xFF) != 0 {
		t.Fatalf("res1 (%#x) and res2 (%#x) must differ only in the low byte", res1, res2)
	}

	c := New(Config{})
	if err := c.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	const want = 1000000 + 2000000
	if got := c.Reg(6); got != want {
		t.Errorf("res1 = %d, want %d (first, unpatched execution)", got, want)
	}
	if got := c.Reg(7); got != want {
		t.Errorf("res2 = %d, want %d (stale memo replayed after a last-byte store)", got, want)
	}
}

// TestSelfStoreOnFirstExecution pins an instruction that stores into its
// own bytes the first time it runs: movb #127, 16(r3) with r3 = patch-12
// rewrites its own displacement byte from 16 to 127. The second execution
// must decode the new displacement and store at patch+115; an instruction
// cache that kept the bytes (or decode) it saw before the store would
// store at patch+4 again.
func TestSelfStoreOnFirstExecution(t *testing.T) {
	img, err := Assemble(`
	main:	.mask
		movl #2, r4
		moval patch, r3
		subl2 #12, r3
	patch:	movb #127, 16(r3)   ; [op][imm8 spec][7f][disp8 spec][10]
		decl r4
		bne patch
		ret
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	patch := img.Symbols["patch"]
	if got := img.Bytes[patch-img.Org+4]; got != 16 {
		t.Fatalf("displacement byte at patch+4 = %d, want 16 (encoding changed)", got)
	}
	c := New(Config{})
	if err := c.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := c.Mem.Bytes(patch+115, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 127 {
		t.Errorf("byte at patch+115 = %#02x, want 0x7f (the patched displacement was not used)", got[0])
	}
}
