package cisc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"risc1/internal/mem"
)

// blockKernel is a short program for the block tier's differentials: eight
// calls of a procedure that loops over register, immediate, indexed,
// absolute and displacement operands, moves bytes, makes a CALLS/RET with a
// save mask, prints to the console and takes a JMP.
const blockKernel = `
main:	.mask r9
	movl #8, r9
outer:	calls #0, work
	decl r9
	bne outer
	ret
work:	.mask r2, r3
	moval tab, r3
	clrl r1
	movl #6, r2
fill:	movl r2, (r3)[r1]
	mull3 r2, r2, r4
	addl2 r4, @acc
	incl r1
	decl r2
	bne fill
	clrl r1
	clrl r5
sum:	cmpl (r3)[r1], #3
	blt skip
	addl2 (r3)[r1], r5
	movb r5, @0xFFFFFF00
skip:	incl r1
	cmpl r1, #6
	blt sum
	pushl r5
	pushl @acc
	calls #2, mix
	movl r0, @0xFFFFFF04
	movzbl @bytes, r6
	ashl #-1, r0, r7
	divl3 r7, #3, r8
	tstl r8
	beq done
	jmp @done
	halt
done:	ret
mix:	.mask r2
	movl 4(ap), r2
	subl3 r2, 8(ap), r0
	ashl #2, r0, r0
	ret
	.align 4
tab:	.space 32
acc:	.word 0
bytes:	.byte 65
`

// blockRun is how one run ended: its outcome (the RunError in full, or the
// console), its Stats and every Progress call.
type blockRun struct {
	outcome  string
	progress []string
	blocks   int // blocks compiled
}

// runBlockDiff runs img on a fresh machine with the block tier or with the
// predecode cache (and so the block tier) bypassed; arm, when set, arms the
// machine after Load.
func runBlockDiff(t *testing.T, img *Image, maxCycles uint64, noCache bool, arm func(*CPU)) blockRun {
	t.Helper()
	c := New(Config{MemSize: 1 << 16, MaxCycles: maxCycles})
	c.noCache = noCache
	if err := c.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	if arm != nil {
		arm(c)
	}
	var r blockRun
	c.Progress = func(instructions, cycles uint64) {
		r.progress = append(r.progress, fmt.Sprintf("%d/%d", instructions, cycles))
	}
	r.outcome = renderOutcome(c, c.Run())
	for _, b := range c.blocks {
		if b != nil {
			r.blocks++
		}
	}
	return r
}

// checkBlockDiff compares a block-tier run with its bypassed twin.
func checkBlockDiff(t *testing.T, what string, got, want blockRun) {
	t.Helper()
	if got.outcome != want.outcome {
		t.Fatalf("%s: with blocks:\n%s\nbypassed:\n%s", what, got.outcome, want.outcome)
	}
	if g, w := strings.Join(got.progress, " "), strings.Join(want.progress, " "); g != w {
		t.Fatalf("%s: Progress with blocks: %s\nbypassed: %s", what, g, w)
	}
}

// TestBlockTierBudgetAndFaults steps MaxCycles through every microcycle of
// blockKernel, so the budget runs out at every instruction boundary and
// inside every block, and arms FailNthRead at every data read. Each run
// must end exactly as it does with the predecode cache bypassed: the same
// RunError (PC, Cycles, registers), the same Stats and the same Progress
// calls.
func TestBlockTierBudgetAndFaults(t *testing.T) {
	img := MustAssemble(blockKernel)
	full := runBlockDiff(t, img, 1<<20, false, nil)
	checkBlockDiff(t, "full run", full, runBlockDiff(t, img, 1<<20, true, nil))
	if !strings.Contains(full.outcome, "ok: console") {
		t.Fatalf("blockKernel does not run to completion:\n%s", full.outcome)
	}
	if full.blocks == 0 {
		t.Fatal("no block was compiled; the differential compares Step with itself")
	}
	c := New(Config{})
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	for budget := uint64(1); budget <= s.Cycles+1; budget++ {
		got := runBlockDiff(t, img, budget, false, nil)
		checkBlockDiff(t, fmt.Sprintf("MaxCycles %d", budget), got, runBlockDiff(t, img, budget, true, nil))
	}
	reads := c.Mem.Reads // bytes: an upper bound on the read count
	for n := uint64(1); n <= reads; n++ {
		arm := func(c *CPU) { c.Mem.SetFaultPlan(&mem.FaultPlan{FailNthRead: n}) }
		got := runBlockDiff(t, img, 1<<20, false, arm)
		checkBlockDiff(t, fmt.Sprintf("FailNthRead %d", n), got, runBlockDiff(t, img, 1<<20, true, arm))
	}
}

// TestBlockStoreRewritesLaterInstruction runs a block whose first
// instruction stores into the immediate of a later instruction of the same
// block, with a different value on every pass. The first pass stores
// outside the code, so the store is recorded and the second pass runs the
// loop as a block. The block must stop after the store and the rewritten
// instruction run with the new immediate: running the block's copy would
// add the first pass's 0 again.
func TestBlockStoreRewritesLaterInstruction(t *testing.T) {
	img := MustAssemble(`
	main:	.mask
		clrl r1
		movl #5, r4
		movl #0x7FFE, r3      ; the first pass stores to 0x8000
	loop:	movb r4, 2(r3)        ; later passes: the imm8 of the addl2
	patch:	addl2 #0, r1          ; [op][imm8 spec][imm][r1 spec]
		moval patch, r3
		decl r4
		bne loop
		ret
	`)
	if got := img.Bytes[img.Symbols["patch"]-img.Org+1]; got != byte(modeImm8)<<4 {
		t.Fatalf("patch's first specifier is %#02x, want an imm8 (encoding changed)", got)
	}
	got := runBlockDiff(t, img, 1<<20, false, nil)
	checkBlockDiff(t, "self-modifying block", got, runBlockDiff(t, img, 1<<20, true, nil))
	c := New(Config{MemSize: 1 << 16})
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if r1 := c.Reg(1); r1 != 0+4+3+2+1 {
		t.Errorf("r1 = %d, want 10 (a stale copy of the patched instruction ran)", r1)
	}
}

// TestBlockEndingInCodeStore runs a block cut short by an instruction that
// never gets recorded: its only other instruction then stores into the
// block's own bytes (rewriting an opcode with the same value). The store
// drops the running block as its last instruction, which must end the
// block like any other last instruction.
func TestBlockEndingInCodeStore(t *testing.T) {
	img := MustAssemble(`
	main:	.mask
		movl #3, r4
		movl #0x7FF0, r3      ; the first pass stores outside the code
		movl #0x11, r5        ; the opcode of movb
	loop:	movb r5, (r3)         ; later passes: rewrite this opcode, unchanged
		movb r4, @cell        ; stores into the image, so it is never recorded
		moval loop, r3
		decl r4
		bne loop
		ret
	cell:	.byte 0
	`)
	if got := img.Bytes[img.Symbols["loop"]-img.Org]; got != byte(OpMOVB) {
		t.Fatalf("opcode at loop is %#02x, want movb (encoding changed)", got)
	}
	got := runBlockDiff(t, img, 1<<20, false, nil)
	checkBlockDiff(t, "block ending in a code store", got, runBlockDiff(t, img, 1<<20, true, nil))
}

// TestBlockTierCompilesSuite checks that the suite kernels run almost
// entirely as blocks: a block tier that silently refused every leader
// would still pass the differentials.
func TestBlockTierCompilesSuite(t *testing.T) {
	for _, img := range compileSuite(t)[:3] {
		c := New(Config{})
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		stepped := 0
		for !c.halted {
			n, err := c.runBlocks(runBatch)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				if err := c.Step(); err != nil && !errors.Is(err, ErrHalted) {
					t.Fatal(err)
				}
				stepped++
			}
		}
		if total := c.Stats().Instructions; uint64(stepped)*20 > total {
			t.Errorf("%d of %d instructions single-stepped, want under 5%%", stepped, total)
		}
	}
}

// TestCompiledBranchesMatchTaken checks every compiled branch against
// flags.taken, exec's condition table, under all sixteen flag settings.
func TestCompiledBranchesMatchTaken(t *testing.T) {
	const fall, target = 0x100, 0x200
	for op := range 256 {
		if !isBranch(Op(op)) {
			continue
		}
		fn := compileBranch(Op(op), target)
		for bits := 0; bits < 16; bits++ {
			f := flags{Z: bits&1 != 0, N: bits&2 != 0, V: bits&4 != 0, C: bits&8 != 0}
			c := New(Config{MemSize: 1 << 12})
			c.flags, c.cursor = f, fall
			if err := fn(c); err != nil {
				t.Fatal(err)
			}
			want := uint32(fall)
			if f.taken(Op(op)) {
				want = target
			}
			if c.cursor != want {
				t.Errorf("%v with flags %+v: cursor %#x, want %#x", Op(op), f, c.cursor, want)
			}
		}
	}
}
