package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"risc1/internal/acct"
	"risc1/internal/asm"
	"risc1/internal/isa"
	"risc1/internal/mem"
	"risc1/internal/stats"
)

// The block engine's contract is observational equivalence with Step.
// Every test here runs the same image under the step oracle and the auto
// engine (basic blocks), and requires the complete visible machine state —
// PC pair, lastPC, flags, windows, console, full Stats(), and fault
// identity — and what the Progress and Retire hooks saw to match exactly.

// runLog is what a run's hooks saw: the counters at every Progress call
// and every retired instruction.
type runLog struct {
	progress [][2]uint64
	retired  []retirement
}

// runEngine loads img into a fresh CPU with the given engine, arms plan
// (nil for none) and runs it, logging its hooks.
func runEngine(t *testing.T, cfg Config, e Engine, img *asm.Image, plan *mem.FaultPlan) (*CPU, *runLog, error) {
	t.Helper()
	cfg.Engine = e
	c := New(cfg)
	if err := c.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	if plan != nil {
		c.Mem.SetFaultPlan(plan)
	}
	log := &runLog{}
	c.Progress = func(instructions, cycles uint64) {
		log.progress = append(log.progress, [2]uint64{instructions, cycles})
	}
	recordRetire(t, c, &log.retired)
	return c, log, c.Run()
}

// diffEngines runs img under the step oracle and the block engine and
// requires the two to agree.
func diffEngines(t *testing.T, cfg Config, src string) (*CPU, *CPU) {
	t.Helper()
	return diffImage(t, cfg, asm.MustAssemble(src), nil)
}

// diffImage runs img under both engines, each with its own copy of the
// fault plan plan returns (nil: none), and requires the two to agree.
func diffImage(t *testing.T, cfg Config, img *asm.Image, plan func() *mem.FaultPlan) (*CPU, *CPU) {
	t.Helper()
	if plan == nil {
		plan = func() *mem.FaultPlan { return nil }
	}
	cs, ls, errS := runEngine(t, cfg, EngineStep, img, plan())
	cb, lb, errB := runEngine(t, cfg, EngineAuto, img, plan())
	compareEngines(t, "block", cs, cb, errS, errB)
	compareHooks(t, ls, lb)
	return cs, cb
}

// compareHooks checks that the block engine's hooks saw what the step
// oracle's did: Progress at the same batch boundaries with the same
// counters, and the same per-instruction Retire stream. Prefix runs at
// batch cuts must leave both unchanged.
func compareHooks(t *testing.T, ls, lb *runLog) {
	t.Helper()
	if i := firstDiff(ls.progress, lb.progress); i >= 0 {
		t.Fatalf("Progress call %d differs (step made %d calls, block %d): step %v, block %v",
			i, len(ls.progress), len(lb.progress), at(ls.progress, i), at(lb.progress, i))
	}
	if i := firstDiff(ls.retired, lb.retired); i >= 0 {
		t.Fatalf("retirement %d differs (step retired %d, block %d): step %+v, block %+v",
			i, len(ls.retired), len(lb.retired), at(ls.retired, i), at(lb.retired, i))
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// at returns s[i], or the zero value past its end.
func at[T any](s []T, i int) T {
	var z T
	if i < len(s) {
		return s[i]
	}
	return z
}

// compareEngines checks co (ran under the engine called name) against the
// step oracle cs.
func compareEngines(t *testing.T, name string, cs, co *CPU, errS, errO error) {
	t.Helper()
	if (errS == nil) != (errO == nil) {
		t.Fatalf("error mismatch:\nstep: %v\n%s: %v", errS, name, errO)
	}
	if errS != nil {
		var es, eo *RunError
		if errors.As(errS, &es) != errors.As(errO, &eo) {
			t.Fatalf("error type mismatch:\nstep: %v\n%s: %v", errS, name, errO)
		}
		if es != nil {
			if es.PC != eo.PC || es.Cycles != eo.Cycles || es.CWP != eo.CWP ||
				es.Inst != eo.Inst || es.Err.Error() != eo.Err.Error() ||
				!reflect.DeepEqual(es.Window, eo.Window) {
				t.Fatalf("fault identity mismatch:\nstep: %+v\n%s: %+v", es, name, eo)
			}
		} else if errS.Error() != errO.Error() {
			t.Fatalf("error mismatch:\nstep: %v\n%s: %v", errS, name, errO)
		}
	}
	if cs.pc != co.pc || cs.npc != co.npc || cs.lastPC != co.lastPC {
		t.Fatalf("PC state mismatch: step pc=%#x npc=%#x last=%#x; %s pc=%#x npc=%#x last=%#x",
			cs.pc, cs.npc, cs.lastPC, name, co.pc, co.npc, co.lastPC)
	}
	if cs.halted != co.halted || cs.inDelay != co.inDelay || cs.ie != co.ie {
		t.Fatalf("mode mismatch: step halted=%v inDelay=%v ie=%v; %s halted=%v inDelay=%v ie=%v",
			cs.halted, cs.inDelay, cs.ie, name, co.halted, co.inDelay, co.ie)
	}
	if cs.flags != co.flags {
		t.Fatalf("flags mismatch: step %+v, %s %+v", cs.flags, name, co.flags)
	}
	if cs.callDepth != co.callDepth || cs.savePtr != co.savePtr || cs.Regs.CWP() != co.Regs.CWP() {
		t.Fatalf("window state mismatch: step depth=%d save=%#x cwp=%d; %s depth=%d save=%#x cwp=%d",
			cs.callDepth, cs.savePtr, cs.Regs.CWP(), name, co.callDepth, co.savePtr, co.Regs.CWP())
	}
	for r := 0; r < isa.NumVisibleRegs; r++ {
		if a, b := cs.Regs.Get(uint8(r)), co.Regs.Get(uint8(r)); a != b {
			t.Fatalf("r%d mismatch: step %#x, %s %#x", r, a, name, b)
		}
	}
	if a, b := cs.Console(), co.Console(); a != b {
		t.Fatalf("console mismatch: step %q, %s %q", a, name, b)
	}
	ss, so := cs.Stats(), co.Stats()
	if !reflect.DeepEqual(*ss, *so) {
		t.Fatalf("stats mismatch:\nstep: %+v\n%s: %+v", *ss, name, *so)
	}
}

// checkAcct holds a run on the core to the counter identities of
// acct.Check; a windowed core also owes the exact cycle identity.
func checkAcct(t *testing.T, name string, c *CPU) {
	t.Helper()
	if err := acct.Check(acct.Run{
		Stats:     c.Stats(),
		DepthHist: true,
		Windowed:  !c.cfg.Flat,
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

const loopSrc = `
	main:	add r0,#0,r1
		li #1000,r2
	loop:	add r1,#1,r1
		cmp r1,r2
		blt loop
		nop
		stl r1,(r0)#` + putIntDisp + `
		ret r25,#8
		nop
	`

// hotSlotFaultSrc is a hot loop whose delay-slot load walks up through
// memory until it leaves a 64 KiB machine.
const hotSlotFaultSrc = `
	main:	li #0x8000,r1
	loop:	add r1,#64,r1
		cmp r1,#0
		bne loop
		ldl (r1)#0,r2
		ret r25,#8
		nop
	`

// hotTwoBlockFaultSrc is a hot loop of two blocks whose first block's
// load walks up through memory until it leaves a 64 KiB machine.
const hotTwoBlockFaultSrc = `
	main:	li #0x8000,r1
	loop:	add r1,#64,r1
		ldl (r1)#0,r2
		cmp r2,#1
		beq out
		nop
		cmp r1,#0
		bne loop
		nop
	out:	ret r25,#8
		nop
	`

// hotCodeStoreSrc is a hot loop with loads whose store walks up through a
// buffer that sits right before the loop, so once the loop is hot the
// store rewrites the loop's own first word (add r4 becomes add r2).
const hotCodeStoreSrc = `
	main:	li #buf,r4
		li #donor,r3
		add r0,#0,r2
		b loop
		nop
	buf:	.word 0
		.word 0
		.word 0
		.word 0
		.word 0
		.word 0
	loop:	add r4,#4,r4
		ldl (r3)#0,r1
		stl r1,(r4)#-4
		add r2,#1,r2
		cmp r2,#40
		blt loop
		nop
		stl r2,(r0)#` + putIntDisp + `
		ret r25,#8
		nop
	donor:	add r2,#3,r2
	`

// hotSlotCodeStoreSrc is hotCodeStoreSrc with the store in the loop
// branch's delay slot: once the loop is hot, the slot rewrites the loop's
// first word, and the next iteration must run the new one.
const hotSlotCodeStoreSrc = `
	main:	li #buf,r4
		li #donor,r3
		ldl (r3)#0,r1
		add r0,#0,r2
		b loop
		nop
	buf:	.word 0
		.word 0
		.word 0
		.word 0
		.word 0
		.word 0
	loop:	add r4,#4,r4
		add r2,#1,r2
		cmp r2,#40
		blt loop
		stl r1,(r4)#-4
		stl r2,(r0)#` + putIntDisp + `
		ret r25,#8
		nop
	donor:	add r2,#3,r2
	`

// recurseSrc is the canonical windowed recursion (sum via register
// windows), deep enough to spill and refill.
var recurseSrc = sumProgram(30)

func TestEngineEquivalenceLoop(t *testing.T) {
	cs, _ := diffEngines(t, Config{}, loopSrc)
	if cs.Console() != "1000" {
		t.Fatalf("console = %q, want 1000", cs.Console())
	}
}

// TestEngineEquivalenceCallsAndSpills runs the recursion at every spill
// batch; the windows a trap spills beyond the first have their own
// counter, so every batch owes the exact cycle identity. The cycles are
// pinned too: acct.Check prices traps with the same timing.TrapCycles the
// core charges, so only a pinned number shows a change to a trap's price.
func TestEngineEquivalenceCallsAndSpills(t *testing.T) {
	wantCycles := []uint64{1: 2282, 2: 2258, 3: 2298, 4: 2354}
	for batch := 1; batch <= 4; batch++ {
		cs, cb := diffEngines(t, Config{SpillBatch: batch}, recurseSrc)
		s := cs.Stats()
		if s.WindowOverflow == 0 || s.WindowUnderflow == 0 {
			t.Fatalf("batch %d: recursion did not exercise spills: %+v", batch, s)
		}
		if s.Cycles != wantCycles[batch] {
			t.Errorf("batch %d: %d cycles, want %d", batch, s.Cycles, wantCycles[batch])
		}
		if (s.WindowBatchSpills > 0) != (batch > 1) {
			t.Errorf("batch %d: %d batch spills", batch, s.WindowBatchSpills)
		}
		checkAcct(t, fmt.Sprintf("step, batch %d", batch), cs)
		checkAcct(t, fmt.Sprintf("block, batch %d", batch), cb)
	}
}

func TestEngineEquivalenceFlat(t *testing.T) {
	diffEngines(t, Config{Flat: true}, loopSrc)
	// Windowed recursion is wrong-by-construction on the flat machine
	// (shared link register): it runs away, so cap the budget — the
	// equivalence must hold on the capped divergence too.
	diffEngines(t, Config{Flat: true, MaxCycles: 100000}, recurseSrc)
}

func TestEngineEquivalenceMemoryAndMisc(t *testing.T) {
	diffEngines(t, Config{}, `
	main:	li #buf,r1
		li #0x1234,r2
		stl r2,(r1)#0
		sts r2,(r1)#4
		stb r2,(r1)#6
		ldl (r1)#0,r3
		ldsu (r1)#4,r4
		ldss (r1)#4,r5
		ldbu (r1)#6,r6
		ldbs (r1)#6,r7
		ldhi r8,#5
		getpsw r10
		add! r3,r4,r11
		sub! r0,r5,r12
		and r2,#255,r13
		or r2,#15,r14
		xor r2,r3,r15
		sll r2,#3,r16
		srl r2,#2,r17
		sra r12,#1,r18
		addc r2,r3,r19
		subc r2,#1,r20
		subr r2,#0,r21
		subcr r2,#0,r22
		ret r25,#8
		nop
	buf:	.word 0
		.word 0
	`)
}

func TestEngineEquivalenceUntakenBranch(t *testing.T) {
	diffEngines(t, Config{}, `
	main:	add r0,#1,r1
		cmp r1,#1
		bne away            ; never taken: still owns its delay slot
		add r1,#10,r1       ; useful slot work
		cmp r1,#99
		beq away
		nop
	away:	ret r25,#8
		nop
	`)
}

func TestEngineEquivalenceFaults(t *testing.T) {
	cases := map[string]struct {
		cfg Config
		src string
	}{
		// A misaligned load in the middle of a straight-line block: the
		// fault must unwind the batched accounting of everything after it.
		"misaligned load mid-block": {Config{}, `
	main:	add r0,#1,r1
		add r1,#1,r2
		ldl (r0)#2,r3
		add r2,#1,r4
		add r4,#1,r5
		ret r25,#8
		nop
	`},
		"store out of range": {Config{MemSize: 1 << 16}, `
	main:	ldhi r1,#40
		add r1,#0,r1
		stl r1,(r1)#0
		add r0,#1,r2
		ret r25,#8
		nop
	`},
		// Fault in the delay slot of a taken branch: PC/NPC must show the
		// discontinuous pair.
		"fault in delay slot": {Config{}, `
	main:	add r0,#1,r1
		b target
		ldl (r0)#2,r3
	target:	ret r25,#8
		nop
	`},
		// The save stack fills during a call chain: the transfer itself
		// faults after spill cycles were charged.
		"save stack overflow": {Config{SaveStackBytes: 128}, recurseSrc},
		// A hot loop whose delay-slot load climbs out of memory after
		// many block runs: the fault lands in a block's slot.
		"hot loop delay-slot fault": {Config{MemSize: 1 << 16}, hotSlotFaultSrc},
		// The same walk in the first block of a two-block loop.
		"hot two-block loop fault": {Config{MemSize: 1 << 16}, hotTwoBlockFaultSrc},
		// Execution falls into a word that does not decode.
		"undecodable word": {Config{}, `
	main:	add r0,#1,r1
		add r1,#1,r2
		.word 0xffffffff
		ret r25,#8
		nop
	`},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			img := asm.MustAssemble(tc.src)
			if _, _, err := runEngine(t, tc.cfg, EngineStep, img, nil); err == nil {
				t.Fatalf("expected a fault, got clean run")
			}
			diffImage(t, tc.cfg, img, nil)
		})
	}
}

// TestEngineEquivalenceMaxCycles sweeps the cycle budget across every
// boundary of the first few hundred cycles of both a tight loop and a
// spill-heavy recursion. This pins the batched-accounting split: wherever
// the budget lands — mid-block, at the transfer, at the delay slot after
// dynamic spill cycles — both engines must refuse at the same instruction
// with identical statistics.
func TestEngineEquivalenceMaxCycles(t *testing.T) {
	for name, src := range map[string]string{
		"loop":                     loopSrc,
		"recurse":                  recurseSrc,
		"hot loop code store":      hotCodeStoreSrc,
		"hot loop slot code store": hotSlotCodeStoreSrc,
	} {
		t.Run(name, func(t *testing.T) {
			img := asm.MustAssemble(src)
			for limit := uint64(1); limit <= 600; limit++ {
				diffImage(t, Config{MaxCycles: limit}, img, nil)
			}
		})
	}
}

// TestEngineEquivalenceSelfModifyingBlock stores over an instruction two
// words ahead in the store's own block: the block engine must stop at the
// store and pick up the fresh bytes, exactly like the step engine's
// predecode invalidation.
func TestEngineEquivalenceSelfModifyingBlock(t *testing.T) {
	cs, _ := diffEngines(t, Config{}, `
	main:	li #target,r4
		li #donor,r3
		ldl (r3)#0,r1
		stl r1,(r4)#0       ; overwrite target, later in this very block
		add r0,#5,r2
	target:	add r0,#7,r5        ; patched to "add r0,#99,r5" before it runs
		ret r25,#8
		nop
	donor:	add r0,#99,r5
	`)
	if got := cs.Reg(5); got != 99 {
		t.Fatalf("r5 = %d, want 99 (patch must take effect in-block)", got)
	}
}

// TestEngineEquivalenceSelfModifyingSlot patches the delay slot of the
// block's own terminator.
func TestEngineEquivalenceSelfModifyingSlot(t *testing.T) {
	cs, _ := diffEngines(t, Config{}, `
	main:	li #slot,r4
		li #donor,r3
		ldl (r3)#0,r1
		stl r1,(r4)#0       ; overwrite the branch's delay slot
		b done
	slot:	add r0,#7,r5        ; patched to "add r0,#99,r5"
	done:	ret r25,#8
		nop
	donor:	add r0,#99,r5
	`)
	if got := cs.Reg(5); got != 99 {
		t.Fatalf("r5 = %d, want 99 (patched slot must run fresh)", got)
	}
}

func TestEngineEquivalenceSelfModLoop(t *testing.T) {
	diffEngines(t, Config{}, `
	main:	li #donor,r3
		ldl (r3)#0,r1
		li #patch,r4
	patch:	add r0,#7,r2
		cmp r2,#7
		bne done
		nop
		stl r1,(r4)#0
		b patch
		nop
	done:	ret r25,#8
		nop
	donor:	add r0,#77,r2
	`)
}

// TestEngineEquivalenceInterrupt delivers a queued interrupt and runs the
// handler round trip under both engines.
func TestEngineEquivalenceInterrupt(t *testing.T) {
	src := `
	main:	add r0,#0,r1
	loop:	add r1,#1,r1
		cmp r1,#50
		blt loop
		nop
		stl r1,(r0)#` + putIntDisp + `
		ret r25,#8
		nop
		.align 4
	handler: callint r16
		add r5,#1,r5
		retint r16,#0
		nop
	`
	img := asm.MustAssemble(src)
	vec, _ := img.Symbol("handler")
	run := func(e Engine) (*CPU, error) {
		c := New(Config{Engine: e})
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		c.Interrupt(vec)
		return c, c.Run()
	}
	cs, errS := run(EngineStep)
	cb, errB := run(EngineAuto)
	compareEngines(t, "block", cs, cb, errS, errB)
	if cs.Console() != "50" {
		t.Fatalf("console = %q, want 50", cs.Console())
	}
}

// retirement is one instruction as the Retire hook reported it; taken is
// recorded on the run's transfer only.
type retirement struct {
	pc    uint32
	inst  isa.Inst
	taken bool
}

// recordRetire installs a Retire hook on c that appends every reported
// instruction to *log, checking that runs are non-empty and that the
// first instruction of each run follows the PC the previous run left.
func recordRetire(t *testing.T, c *CPU, log *[]retirement) {
	t.Helper()
	c.Retire = func(pc uint32, insts []isa.Inst, taken bool) {
		if len(insts) == 0 {
			t.Fatalf("empty run reported at %#x", pc)
		}
		for i, in := range insts {
			r := retirement{pc: pc + uint32(4*i), inst: in}
			if in.Op.Transfers() {
				r.taken = taken
			}
			*log = append(*log, r)
		}
	}
}

// faultMidBlockSrc loops long enough to run its blocks on every engine,
// then faults on a load in the middle of a straight-line block.
const faultMidBlockSrc = `
	main:	add r0,#0,r1
	loop:	add r1,#1,r1
		cmp r1,#40
		blt loop
		nop
		ldhi r2,#0x3ffff
		add r1,#2,r1
		ldl (r2)#0,r3
		add r1,#3,r1
		ret r25,#8
		nop
	`

// TestEngineAutoTraceFallsBack pins the Retire hook contract, which the
// facade's per-instruction trace callback rides on: under both engines the
// hook sees every retired instruction exactly once, in order, with the same
// transfer outcomes, and never an instruction that faulted.
func TestEngineAutoTraceFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		src   string
		fault bool
	}{
		{"loop", Config{}, loopSrc, false},
		{"recursion", Config{Windows: 3, SpillBatch: 2}, recurseSrc, false},
		{"fault", Config{}, faultMidBlockSrc, true},
		{"maxcycles", Config{MaxCycles: 1234}, loopSrc, true},
	} {
		img := asm.MustAssemble(tc.src)
		var want []retirement
		for _, e := range []Engine{EngineStep, EngineAuto} {
			cfg := tc.cfg
			cfg.Engine = e
			c := New(cfg)
			if err := c.Load(img); err != nil {
				t.Fatal(err)
			}
			var got []retirement
			recordRetire(t, c, &got)
			err := c.Run()
			if (err != nil) != tc.fault {
				t.Fatalf("%s/%v: err = %v", tc.name, e, err)
			}
			// The faulting instruction is charged but never retires; a
			// refused MaxCycles step is not charged at all.
			charged := c.Stats().Instructions
			if err != nil && !errors.Is(err, ErrMaxCycles) {
				charged--
			}
			if uint64(len(got)) != charged {
				t.Errorf("%s/%v: hook saw %d instructions, %d retired", tc.name, e, len(got), charged)
			}
			if e == EngineStep {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%v: retirement stream differs from step (%d vs %d)", tc.name, e, len(got), len(want))
			}
		}
	}
}

// TestParseEngine pins the knob's spellings.
func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{"": EngineAuto, "auto": EngineAuto, "step": EngineStep} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", s, got, err)
		}
	}
	// The block engine's spelling is auto; "trace" names a deleted tier.
	for _, s := range []string{"warp", "block", "trace"} {
		if got, err := ParseEngine(s); err == nil {
			t.Fatalf("ParseEngine accepted %q", s)
		} else if got != EngineInvalid {
			// The sentinel must never alias a runnable engine: a caller
			// that drops the error must not get a silent auto run.
			t.Fatalf("ParseEngine(%q) = %v, want EngineInvalid", s, got)
		}
	}
	if got := EngineInvalid.String(); got != "invalid" {
		t.Fatalf("EngineInvalid.String() = %q", got)
	}
}

// TestInvalidEngineClamped pins the defense-in-depth path: a caller that
// ignores ParseEngine's error and runs anyway still gets a working machine
// (EngineAuto), not an engine value the dispatch switch has never heard of.
func TestInvalidEngineClamped(t *testing.T) {
	c := run(t, Config{Engine: EngineInvalid}, `
	main:	add r0,#1,r1
		ret r25,#8
		nop
	`)
	if got := c.Reg(1); got != 1 {
		t.Fatalf("r1 = %d, want 1", got)
	}
	if !c.Halted() {
		t.Error("machine did not halt")
	}
}

// batchCutSrc spins for most of the first run batch, then runs a loop of
// long blocks. The spin count puts the 4096-instruction cut inside a loop
// block, two instructions before the walking store below, so the block
// engine runs a prefix there.
// Every trip also copies one word of the loop over itself, walking forward
// through the body: the store lands in the block that is running, often
// inside the prefix that has already run.
const batchCutSrc = `
	main:	li #975,r3
	spin:	sub r3,#1,r3
		cmp r3,#0
		bne spin
		nop
		li #buf,r1
		li #body,r4
		add r0,#0,r2
	loop:	add r2,#1,r2
	body:	add r5,#1,r5
		ldl (r1)#0,r6
		add r6,#3,r6
		stl r6,(r1)#0
		add r5,r6,r7
		xor r7,#0x55,r7
		sll r7,#2,r8
		srl r8,#1,r8
		sub r8,r7,r8
		ldl (r4)#0,r9
		stl r9,(r4)#0
		add r4,#4,r4
		add r7,r8,r10
		or r10,#1,r10
		and r10,#0xff,r11
		ldl (r1)#4,r12
		add r12,r11,r12
		stl r12,(r1)#4
		add r11,#7,r11
		sub r11,#2,r11
		add r5,r11,r5
		xor r5,r12,r13
		add r13,#1,r13
		add r13,#2,r13
		add r13,#3,r13
		add r13,#4,r13
		cmp r2,#14
		blt loop
		nop
		stl r5,(r0)#` + putIntDisp + `
		ret r25,#8
		nop
		.align 4
	buf:	.word 0
		.word 0
	`

// TestEngineEquivalenceBatchCut pins prefix runs at batch cuts against the
// step oracle: machine state, Stats, Progress calls and the Retire stream
// must match under every MaxCycles boundary of the run and with the Nth
// data read or write failing, for every N the run reaches.
func TestEngineEquivalenceBatchCut(t *testing.T) {
	img := asm.MustAssemble(batchCutSrc)
	// The sweeps below make some 13,000 runs; a small memory keeps each
	// one's set-up cheap.
	base := Config{MemSize: 1 << 16}
	cs, _ := diffImage(t, base, img, nil)
	s := cs.Stats()
	for limit := uint64(1); limit <= s.Cycles; limit++ {
		cfg := base
		cfg.MaxCycles = limit
		diffImage(t, cfg, img, nil)
	}
	// Every data access of the program is a word.
	for n := uint64(1); n <= s.DataReads/4; n++ {
		diffImage(t, base, img, func() *mem.FaultPlan { return &mem.FaultPlan{FailNthRead: n} })
	}
	for n := uint64(1); n <= s.DataWrites/4; n++ {
		diffImage(t, base, img, func() *mem.FaultPlan { return &mem.FaultPlan{FailNthWrite: n} })
	}

	// The loop must really exercise the mechanism: some block runs end at
	// a batch cut without their transfer, and some stop after a store into
	// their own block.
	c := New(Config{})
	if err := c.Load(img); err != nil {
		t.Fatal(err)
	}
	var cuts, selfStores int
	c.Retire = func(pc uint32, insts []isa.Inst, taken bool) {
		last := insts[len(insts)-1]
		if len(insts) > 1 && c.stat.Instructions%runBatch == 0 && !last.Op.Transfers() &&
			!insts[len(insts)-2].Op.Transfers() {
			cuts++
		}
		if last.Op == isa.OpSTL && c.blocks[(pc-c.codeOrg)>>2] == nil {
			selfStores++
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if cuts == 0 || selfStores == 0 {
		t.Fatalf("block runs ending at a batch cut: %d; stopped by a store into their own block: %d", cuts, selfStores)
	}
}

// foldSrc runs some 50,000 instructions, a dozen run batches: a recursive
// call that spills and fills windows, a register-only loop and a loop over
// memory, 150 times.
const foldSrc = `
	main:	add r0,#0,r20
		li #buf,r21
	outer:	add r0,#10,r10
		callr r25,sum
		nop
		add r0,#0,r1
	inner:	add r1,#1,r1
		xor r1,r10,r11
		cmp r1,#20
		blt inner
		nop
	walk:	ldl (r21)#0,r12
		add r12,r11,r12
		stl r12,(r21)#0
		sub r1,#1,r1
		cmp r1,#0
		bgt walk
		nop
		add r20,#1,r20
		cmp r20,#150
		blt outer
		nop
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
		.align 4
	buf:	.word 0
	`

// TestStatsFoldOnRead reads Stats from a Progress hook at every batch
// boundary. The block tier counts a block's full runs and multiplies its
// opcode mix out only when Stats reads it, so each read must fold what is
// pending: the boundaries are the step oracle's, and every snapshot must
// equal its counterpart and satisfy the counter identities.
func TestStatsFoldOnRead(t *testing.T) {
	img := asm.MustAssemble(foldSrc)
	run := func(e Engine) []stats.Stats {
		t.Helper()
		c := New(Config{Engine: e})
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		var snaps []stats.Stats
		c.Progress = func(uint64, uint64) {
			snaps = append(snaps, *c.Stats())
			checkAcct(t, e.String()+" mid-run", c)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	step, block := run(EngineStep), run(EngineAuto)
	if len(step) < 10 {
		t.Fatalf("%d batch boundaries, want at least 10", len(step))
	}
	if len(step) != len(block) {
		t.Fatalf("step read Stats %d times, block %d", len(step), len(block))
	}
	for i := range step {
		if !reflect.DeepEqual(step[i], block[i]) {
			t.Fatalf("Stats at boundary %d:\nstep:  %+v\nblock: %+v", i, step[i], block[i])
		}
	}
}
