package pipeline

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/core"
	"risc1/internal/prog"
	"risc1/internal/timing"
)

// assemble builds an image from machine-level source.
func assemble(t *testing.T, src string) *asm.Image {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

// runModel loads src into a fresh pipelined machine and runs it to halt.
func runModel(t *testing.T, src string, p Policy) (*Machine, Result) {
	t.Helper()
	m := New(core.Config{}, p)
	if err := m.Load(assemble(t, src)); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, m.Result()
}

// checkInvariant pins the structural identity of a completed run: every
// cycle is the instruction itself, pipeline fill/drain, or an attributed
// stall — nothing is charged twice and nothing leaks.
func checkInvariant(t *testing.T, r Result) {
	t.Helper()
	if want := r.Instructions + 4 + r.StallCycles(); r.Cycles != want {
		t.Errorf("%v: cycles = %d, want instructions+4+stalls = %d (%+v)",
			r.Policy, r.Cycles, want, r)
	}
}

func TestStraightLineCycles(t *testing.T) {
	// Three adds and the halting return: four retirements, no hazards.
	// The halting RET's delay slot is never executed. N+4 cycles exactly.
	src := `
	main:	add r0,#1,r1
		add r0,#2,r2
		add r0,#3,r3
		ret r25,#8
		nop
	`
	for _, p := range []Policy{PolicyDelayed, PolicySquash} {
		_, r := runModel(t, src, p)
		if r.Instructions != 4 {
			t.Fatalf("%v: instructions = %d, want 4", p, r.Instructions)
		}
		if r.Cycles != 8 {
			t.Errorf("%v: cycles = %d, want 8", p, r.Cycles)
		}
		if r.StallCycles() != 0 || r.Forwards() != 0 {
			t.Errorf("%v: unexpected stalls/forwards: %+v", p, r)
		}
		checkInvariant(t, r)
	}
}

func TestEXMEMForwardChain(t *testing.T) {
	// Each add consumes the previous one's result in the very next cycle:
	// two EX/MEM forwards, zero stalls.
	src := `
	main:	add r0,#1,r1
		add r1,#1,r1
		add r1,#1,r1
		ret r25,#8
		nop
	`
	_, r := runModel(t, src, PolicyDelayed)
	if r.Cycles != 8 || r.ForwardsEXMEM != 2 || r.LoadUseStallCycles != 0 {
		t.Errorf("cycles=%d fwdEXMEM=%d ldUse=%d, want 8/2/0",
			r.Cycles, r.ForwardsEXMEM, r.LoadUseStallCycles)
	}
	checkInvariant(t, r)
}

func TestLoadUseInterlock(t *testing.T) {
	// The add consumes the load in its shadow: one interlock cycle, then
	// the MEM/WB forward delivers the value.
	src := `
	main:	la data,r1
		ldl (r1)#0,r2
		add r2,#1,r3
		ret r25,#8
		nop
		.align 4
	data:	.word 41
	`
	_, r := runModel(t, src, PolicyDelayed)
	if r.LoadUseStallCycles != 1 {
		t.Errorf("load-use stalls = %d, want 1", r.LoadUseStallCycles)
	}
	// One interlock cycle, plus the load's MEM stage closing the memory
	// port to the final return's fetch.
	if r.MemPortStallCycles != 1 {
		t.Errorf("mem-port stalls = %d, want 1", r.MemPortStallCycles)
	}
	if want := r.Instructions + 4 + 2; r.Cycles != want {
		t.Errorf("cycles = %d, want %d", r.Cycles, want)
	}
	if r.ForwardsMEMWB == 0 {
		t.Error("stalled load consumer did not take the MEM/WB forward")
	}
	checkInvariant(t, r)
}

func TestLoadWithGapNoStall(t *testing.T) {
	// One independent instruction between the load and its consumer: the
	// MEM/WB path covers the distance with no interlock.
	src := `
	main:	la data,r1
		ldl (r1)#0,r2
		add r0,#5,r4
		add r2,#1,r3
		ret r25,#8
		nop
		.align 4
	data:	.word 41
	`
	_, r := runModel(t, src, PolicyDelayed)
	if r.LoadUseStallCycles != 0 {
		t.Errorf("load-use stalls = %d, want 0", r.LoadUseStallCycles)
	}
	// No interlock, but the load still closes the memory port to one
	// later fetch.
	if r.MemPortStallCycles != 1 {
		t.Errorf("mem-port stalls = %d, want 1", r.MemPortStallCycles)
	}
	if want := r.Instructions + 4 + 1; r.Cycles != want {
		t.Errorf("cycles = %d, want %d", r.Cycles, want)
	}
	checkInvariant(t, r)
}

func TestMemPortConflict(t *testing.T) {
	// Three back-to-back loads: in steady state each MEM stage collides
	// with the fetch of the instruction three behind it, so every load
	// costs the follower stream exactly one port cycle — the model's
	// version of the paper's two-cycle loads.
	src := `
	main:	la data,r1
		ldl (r1)#0,r2
		ldl (r1)#4,r3
		ldl (r1)#8,r4
		add r0,#1,r5
		add r0,#2,r6
		add r0,#3,r7
		ret r25,#8
		nop
		.align 4
	data:	.word 1
		.word 2
		.word 3
	`
	_, r := runModel(t, src, PolicyDelayed)
	if r.LoadUseStallCycles != 0 {
		t.Errorf("load-use stalls = %d, want 0", r.LoadUseStallCycles)
	}
	if r.MemPortStallCycles != 3 {
		t.Errorf("mem-port stalls = %d, want 3", r.MemPortStallCycles)
	}
	if want := r.Instructions + 4 + 3; r.Cycles != want {
		t.Errorf("cycles = %d, want %d", r.Cycles, want)
	}
	checkInvariant(t, r)
}

func TestStoreDataNeedsNoInterlock(t *testing.T) {
	// A load feeding the very next store's data register: the value is
	// needed at the store's MEM stage, one cycle after the load's, so it
	// forwards MEM-to-MEM without a stall.
	src := `
	main:	la data,r1
		ldl (r1)#0,r2
		stl r2,(r1)#4
		ret r25,#8
		nop
		.align 4
	data:	.word 7
		.word 0
	`
	_, r := runModel(t, src, PolicyDelayed)
	if r.LoadUseStallCycles != 0 {
		t.Errorf("load-use stalls = %d, want 0", r.LoadUseStallCycles)
	}
	if want := r.Instructions + 4; r.Cycles != want {
		t.Errorf("cycles = %d, want %d", r.Cycles, want)
	}
	checkInvariant(t, r)
}

// selfPatchSrc is a six-trip loop that, on its third trip, stores the
// encoding of "ldl (r1)#0,r2" over its own first instruction, an
// "add r1,#0,r2" that has already retired twice. The instruction after it
// reads r2 in the very next slot, so the patch turns a free EX/MEM forward
// into a load-use interlock.
const selfPatchSrc = `
main:	la donor,r3
	ldl (r3)#0,r5       ; r5 = encoding of "ldl (r1)#0,r2"
	la patch,r4
	la data,r1
	add r0,#0,r6        ; trip counter
patch:	add r1,#0,r2        ; becomes ldl (r1)#0,r2 on the third trip
	add r2,#1,r7        ; reads r2 in the next slot
	add r6,#1,r6
	cmp r6,#3
	bne skip
	nop
	stl r5,(r4)#0       ; third trip only: overwrite patch
skip:	cmp r6,#6
	blt patch
	nop
	ret r25,#8
	nop
	.align 4
data:	.word 41
donor:	ldl (r1)#0,r2       ; never executed; exists for its encoding
`

func TestSelfModifyingTiming(t *testing.T) {
	img := assemble(t, selfPatchSrc)
	patchAddr, _ := img.Symbol("patch")

	// Snapshot the Result each time the loop is about to run patch; trip k
	// is the difference between snapshots k and k+1.
	m := New(core.Config{}, PolicyDelayed)
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	var snaps []Result
	for !m.CPU().Halted() {
		if m.CPU().PC() == patchAddr {
			snaps = append(snaps, m.Result())
		}
		if err := m.Step(); err != nil && !errors.Is(err, core.ErrHalted) {
			t.Fatalf("step: %v", err)
		}
	}
	if len(snaps) != 6 {
		t.Fatalf("loop ran %d trips, want 6", len(snaps))
	}

	// Hand-computed per-trip costs. Before the patch a trip is nine
	// hazard-free instructions. The patching trip adds the store, whose MEM
	// stage closes the port to the fetch of the slot nop three behind it.
	// After the patch the load stalls its consumer one cycle, and its own
	// MEM stage then delays the fetch of the instruction after that.
	type trip struct{ instructions, cycles, loadUse, memPort uint64 }
	want := []trip{
		2: {9, 9, 0, 0},
		3: {10, 11, 0, 1},
		4: {9, 11, 1, 1},
		5: {9, 11, 1, 1},
	}
	for k := 2; k <= 5; k++ {
		a, b := snaps[k-1], snaps[k]
		got := trip{b.Instructions - a.Instructions, b.Cycles - a.Cycles,
			b.LoadUseStallCycles - a.LoadUseStallCycles, b.MemPortStallCycles - a.MemPortStallCycles}
		if got != want[k] {
			t.Errorf("trip %d: got %+v, want %+v", k, got, want[k])
		}
	}
	r := m.Result()
	checkInvariant(t, r)

	// The patched run must stay architecturally identical to the oracle.
	oracle := core.New(core.Config{})
	if err := oracle.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Run(); err != nil {
		t.Fatal(err)
	}
	cpu := m.CPU()
	for reg := uint8(0); reg < 32; reg++ {
		if cpu.Reg(reg) != oracle.Reg(reg) {
			t.Errorf("r%d = %#x, oracle %#x", reg, cpu.Reg(reg), oracle.Reg(reg))
		}
	}
	if cpu.Reg(7) != 42 {
		t.Errorf("r7 = %d, want 42 (the patched load did not run)", cpu.Reg(7))
	}
	if !reflect.DeepEqual(*cpu.Stats(), *oracle.Stats()) {
		t.Errorf("stats diverged:\n pipeline %+v\n oracle   %+v", *cpu.Stats(), *oracle.Stats())
	}
	if r.Instructions != oracle.Stats().Instructions {
		t.Errorf("result instructions = %d, oracle %d", r.Instructions, oracle.Stats().Instructions)
	}
}

func TestTakenTransferPolicies(t *testing.T) {
	// One taken branch with a useful delay slot. Delayed jumps cost
	// nothing beyond the slot; predict-not-taken squashes the one
	// wrong-path fetch past it.
	src := `
	main:	add r0,#1,r1
		b over
		add r0,#2,r2
		add r0,#3,r3
	over:	add r0,#4,r4
		ret r25,#8
		nop
	`
	_, dl := runModel(t, src, PolicyDelayed)
	_, sq := runModel(t, src, PolicySquash)
	if dl.FlushBubbleCycles != 0 {
		t.Errorf("delayed flush bubbles = %d, want 0", dl.FlushBubbleCycles)
	}
	if sq.FlushBubbleCycles != 1 {
		t.Errorf("squash flush bubbles = %d, want 1", sq.FlushBubbleCycles)
	}
	if sq.Cycles != dl.Cycles+1 {
		t.Errorf("cycles: squash %d, delayed %d, want exactly one apart",
			sq.Cycles, dl.Cycles)
	}
	if dl.DelaySlots != 1 || dl.DelaySlotsFilled != 1 {
		t.Errorf("delay slots = %d filled %d, want 1/1", dl.DelaySlots, dl.DelaySlotsFilled)
	}
	checkInvariant(t, dl)
	checkInvariant(t, sq)
}

func TestUntakenTransferCostsNothing(t *testing.T) {
	// An untaken conditional squashes nothing under either policy — the
	// fall-through fetch was the right one. The jump's flag read comes off
	// the EX/MEM bypass from the compare.
	src := `
	main:	cmp r0,#1
		beq over
		nop
		add r0,#2,r2
	over:	ret r25,#8
		nop
	`
	for _, p := range []Policy{PolicyDelayed, PolicySquash} {
		_, r := runModel(t, src, p)
		if r.FlushBubbleCycles != 0 {
			t.Errorf("%v: flush bubbles = %d, want 0", p, r.FlushBubbleCycles)
		}
		if r.TakenTransfers != 1 { // only the final taken... the halting ret is untaken
			t.Logf("%v: taken transfers = %d", p, r.TakenTransfers)
		}
		if r.DelaySlots != 1 || r.DelaySlotsFilled != 0 {
			t.Errorf("%v: delay slots = %d filled %d, want 1/0", p, r.DelaySlots, r.DelaySlotsFilled)
		}
		checkInvariant(t, r)
	}
}

func TestWindowTrapDrains(t *testing.T) {
	// Recursion deep enough to spill and refill the window file: every
	// overflow and underflow drains the pipeline for the trap handler's
	// cycles, and the count must match the oracle's trap count exactly.
	m, r := runModel(t, sumProgram(20), PolicyDelayed)
	st := m.CPU().Stats()
	if st.WindowOverflow == 0 || st.WindowUnderflow == 0 {
		t.Fatalf("recursion did not exercise the window traps: %d/%d",
			st.WindowOverflow, st.WindowUnderflow)
	}
	want := timing.TrapCycles(st.WindowOverflow, st.WindowUnderflow, st.WindowBatchSpills)
	if r.WindowStallCycles != want {
		t.Errorf("window stalls = %d, want %d (%d ovf, %d unf)",
			r.WindowStallCycles, want, st.WindowOverflow, st.WindowUnderflow)
	}
	checkInvariant(t, r)
}

// sumProgram is the windowed recursive summation from the core tests:
// sum(n) = n + sum(n-1), one window per activation.
func sumProgram(n int) string {
	return fmt.Sprintf(`
	main:	add r0,#%d,r10
		callr r25,sum
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
	`, n)
}

func TestPartialRunResult(t *testing.T) {
	// A cycle-limited run still reports a consistent partial Result: the
	// cycle count can only trail the full attribution (a trailing trap
	// drain may be charged but never reached), never exceed it.
	src := `
	main:	b main
		add r1,#1,r1
	`
	m := New(core.Config{MaxCycles: 100}, PolicySquash)
	if err := m.Load(assemble(t, src)); err != nil {
		t.Fatal(err)
	}
	err := m.Run()
	if !errors.Is(err, core.ErrMaxCycles) {
		t.Fatalf("run = %v, want cycle limit", err)
	}
	r := m.Result()
	if r.Instructions == 0 || r.Cycles == 0 {
		t.Fatalf("empty partial result: %+v", r)
	}
	if r.Cycles > r.Instructions+4+r.StallCycles() {
		t.Errorf("partial cycles = %d exceed attribution %d",
			r.Cycles, r.Instructions+4+r.StallCycles())
	}
}

func TestFaultDifferential(t *testing.T) {
	// A faulting guest program must fault identically under the pipeline:
	// same error, same PC, same architectural cycle count.
	src := `
	main:	add r0,#2,r1
		ldl (r1)#0,r2       ; misaligned load faults
		ret r25,#8
		nop
	`
	img := assemble(t, src)

	oracle := core.New(core.Config{})
	if err := oracle.Load(img); err != nil {
		t.Fatal(err)
	}
	oerr := oracle.Run()
	if oerr == nil {
		t.Fatal("oracle did not fault")
	}

	m := New(core.Config{}, PolicyDelayed)
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	perr := m.Run()
	if perr == nil {
		t.Fatal("pipeline did not fault")
	}
	if oerr.Error() != perr.Error() {
		t.Errorf("fault mismatch:\noracle:   %v\npipeline: %v", oerr, perr)
	}
	var oe, pe *core.RunError
	if errors.As(oerr, &oe) && errors.As(perr, &pe) {
		if oe.PC != pe.PC || oe.Cycles != pe.Cycles {
			t.Errorf("fault site: oracle pc=%#x cyc=%d, pipeline pc=%#x cyc=%d",
				oe.PC, oe.Cycles, pe.PC, pe.Cycles)
		}
	} else {
		t.Errorf("faults are not RunErrors: %T / %T", oerr, perr)
	}
}

// compileBench compiles a suite benchmark to a RISC image, with the wide
// -data fallback the toolchain applies when a program's globals outgrow the
// 13-bit displacement window.
func compileBench(t testing.TB, b prog.Benchmark) *asm.Image {
	t.Helper()
	res, err := cc.Compile(b.Source, cc.Options{Target: cc.RISCPipelined})
	if err != nil {
		t.Fatalf("%s: compile: %v", b.Name, err)
	}
	img, err := asm.Assemble(res.Asm)
	if err != nil {
		if !asm.IsOutOfRange(err) {
			t.Fatalf("%s: assemble: %v", b.Name, err)
		}
		res, err = cc.Compile(b.Source, cc.Options{Target: cc.RISCPipelined, WideData: true})
		if err != nil {
			t.Fatalf("%s: recompile: %v", b.Name, err)
		}
		img, err = asm.Assemble(res.Asm)
		if err != nil {
			t.Fatalf("%s: reassemble: %v", b.Name, err)
		}
	}
	return img
}

// TestDifferentialRetirement is the pipeline's ground truth: across the
// whole benchmark suite and both control policies, the pipelined machine
// must be architecturally indistinguishable from the single-cycle oracle —
// same console, same final machine state, same statistics. Only timing may
// differ, and the timing must satisfy the attribution invariant.
func TestDifferentialRetirement(t *testing.T) {
	cfg := core.Config{SaveStackBytes: 64 << 10}
	for _, b := range prog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			img := compileBench(t, b)

			oracle := core.New(cfg)
			if err := oracle.Load(img); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Run(); err != nil {
				t.Fatal(err)
			}
			ost := oracle.Stats()

			var results [2]Result
			for _, p := range []Policy{PolicyDelayed, PolicySquash} {
				m := New(cfg, p)
				if err := m.Load(img); err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				r := m.Result()
				results[p] = r
				cpu := m.CPU()

				if got, want := cpu.Console(), prog.Expected(b.Name); got != want {
					t.Errorf("%v: console = %q, want %q", p, got, want)
				}
				if cpu.Console() != oracle.Console() {
					t.Errorf("%v: console diverged from oracle", p)
				}
				if cpu.PC() != oracle.PC() || cpu.Halted() != oracle.Halted() {
					t.Errorf("%v: final pc/halt %#x/%v, oracle %#x/%v",
						p, cpu.PC(), cpu.Halted(), oracle.PC(), oracle.Halted())
				}
				if cpu.Flags() != oracle.Flags() {
					t.Errorf("%v: flags %+v, oracle %+v", p, cpu.Flags(), oracle.Flags())
				}
				if cpu.Regs.CWP() != oracle.Regs.CWP() {
					t.Errorf("%v: cwp %d, oracle %d", p, cpu.Regs.CWP(), oracle.Regs.CWP())
				}
				for reg := uint8(0); reg < 32; reg++ {
					if cpu.Reg(reg) != oracle.Reg(reg) {
						t.Errorf("%v: r%d = %#x, oracle %#x", p, reg, cpu.Reg(reg), oracle.Reg(reg))
					}
				}

				st := cpu.Stats()
				archEqual := st.Instructions == ost.Instructions &&
					st.Cycles == ost.Cycles &&
					st.FetchBytes == ost.FetchBytes &&
					st.DataReads == ost.DataReads &&
					st.DataWrites == ost.DataWrites &&
					st.Calls == ost.Calls &&
					st.Returns == ost.Returns &&
					st.MaxCallDepth == ost.MaxCallDepth &&
					st.WindowOverflow == ost.WindowOverflow &&
					st.WindowUnderflow == ost.WindowUnderflow &&
					st.Transfers == ost.Transfers &&
					st.TakenTransfers == ost.TakenTransfers &&
					st.DelaySlotNops == ost.DelaySlotNops &&
					st.DelaySlotUseful == ost.DelaySlotUseful
				if !archEqual {
					t.Errorf("%v: architectural stats diverged:\n pipeline %+v\n oracle   %+v", p, st, ost)
				}

				// The timing layer's own counters must agree with the
				// oracle's classification of the same stream.
				if r.Instructions != ost.Instructions {
					t.Errorf("%v: result instructions = %d, oracle %d", p, r.Instructions, ost.Instructions)
				}
				if r.Transfers != ost.Transfers || r.TakenTransfers != ost.TakenTransfers {
					t.Errorf("%v: transfers %d/%d taken, oracle %d/%d",
						p, r.Transfers, r.TakenTransfers, ost.Transfers, ost.TakenTransfers)
				}
				if r.DelaySlots != ost.DelaySlotNops+ost.DelaySlotUseful {
					t.Errorf("%v: delay slots = %d, oracle %d",
						p, r.DelaySlots, ost.DelaySlotNops+ost.DelaySlotUseful)
				}
				if r.DelaySlotsFilled != ost.DelaySlotUseful {
					t.Errorf("%v: filled slots = %d, oracle %d", p, r.DelaySlotsFilled, ost.DelaySlotUseful)
				}
				checkInvariant(t, r)
			}

			dl, sq := results[PolicyDelayed], results[PolicySquash]
			if dl.FlushBubbleCycles != 0 {
				t.Errorf("delayed policy charged %d flush bubbles", dl.FlushBubbleCycles)
			}
			// Every taken transfer's slot retires (the halting return is
			// untaken), so squash hardware eats exactly one bubble per.
			if sq.FlushBubbleCycles != sq.TakenTransfers {
				t.Errorf("squash bubbles = %d, taken transfers = %d",
					sq.FlushBubbleCycles, sq.TakenTransfers)
			}
			// Window-trap drains are architectural and policy-invariant.
			if sq.WindowStallCycles != dl.WindowStallCycles {
				t.Errorf("window stalls differ across policies: %d vs %d",
					sq.WindowStallCycles, dl.WindowStallCycles)
			}
			// The cycle gap between the policies is the squash bubbles
			// minus whatever interlock and memory-port stalls those
			// bubbles' fetch gaps absorbed — exactly, nothing leaks.
			hidden := int64(dl.LoadUseStallCycles+dl.MemPortStallCycles) -
				int64(sq.LoadUseStallCycles+sq.MemPortStallCycles)
			if int64(sq.Cycles-dl.Cycles) != int64(sq.FlushBubbleCycles)-hidden {
				t.Errorf("policy gap = %d cycles, flush bubbles = %d, hidden stalls = %d",
					sq.Cycles-dl.Cycles, sq.FlushBubbleCycles, hidden)
			}
			if dl.MemPortStallCycles == 0 {
				t.Error("suite benchmark charged no memory-port stalls")
			}
			if dl.CPI() < 1 {
				t.Errorf("delayed CPI = %.3f < 1", dl.CPI())
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"": PolicyDelayed, "delayed": PolicyDelayed,
		"squash": PolicySquash, "predict-not-taken": PolicySquash,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("oracle"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
	if PolicyDelayed.String() != "delayed" || PolicySquash.String() != "squash" {
		t.Error("policy spellings drifted")
	}
}
