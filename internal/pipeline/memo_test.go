package pipeline

import (
	"errors"
	"fmt"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/isa"
	"risc1/internal/mem"
	"risc1/internal/prog"
	"risc1/internal/timing"
)

// stepPriced runs img one Machine.Step at a time with memo lookups
// bypassed, so every retirement goes through the scoreboard on its own:
// the reference the memoized block pricing must reproduce.
func stepPriced(cfg core.Config, p Policy, img *asm.Image) (*Machine, error) {
	m := New(cfg, p)
	m.bypass = true
	if err := m.Load(img); err != nil {
		return nil, err
	}
	for !m.CPU().Halted() {
		if err := m.Step(); err != nil {
			return m, err
		}
	}
	return m, nil
}

// comparePricing runs img with Run (block runs priced from the memo) and as
// a bypassed Step loop, and requires the same fault, the same Result, the
// same pending bubble and a window pointer in step with the oracle's.
func comparePricing(t *testing.T, name string, cfg core.Config, p Policy, img *asm.Image) (*Machine, error) {
	t.Helper()
	m := New(cfg, p)
	if err := m.Load(img); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	err := m.Run()
	ref, refErr := stepPriced(cfg, p, img)
	if ref == nil {
		t.Fatalf("%s: load: %v", name, refErr)
	}
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%s: fault mismatch:\nrun:  %v\nstep: %v", name, err, refErr)
	}
	if got, want := m.Result(), ref.Result(); got != want {
		t.Fatalf("%s: block pricing differs from step pricing:\n run  %+v\n step %+v", name, got, want)
	}
	if m.pending != ref.pending {
		t.Fatalf("%s: pending %d, step pricing %d", name, m.pending, ref.pending)
	}
	if cwp := m.CPU().Regs.CWP(); m.cwp != cwp || ref.cwp != cwp {
		t.Fatalf("%s: pricer window %d (step pricing %d), oracle %d", name, m.cwp, ref.cwp, cwp)
	}
	st := m.CPU().Stats()
	traps := timing.TrapCycles(st.WindowOverflow, st.WindowUnderflow, st.WindowBatchSpills)
	if got := m.Result().WindowStallCycles; got != traps {
		t.Fatalf("%s: %d window stall cycles, the core's traps cost %d (%d overflows, %d underflows, %d batch spills)",
			name, got, traps, st.WindowOverflow, st.WindowUnderflow, st.WindowBatchSpills)
	}
	return m, err
}

// TestBlockPricingMatchesStep is the memo's differential: on every suite
// kernel, under both policies, with the paper's windows and with three and
// eight windows spilling two per trap, pricing whole blocks from the memo
// must give exactly the Result of pricing one step at a time, and the
// window stalls must be what the core's traps cost.
func TestBlockPricingMatchesStep(t *testing.T) {
	cfgs := []core.Config{
		{SaveStackBytes: 64 << 10},
		{SaveStackBytes: 64 << 10, Windows: 3, SpillBatch: 2},
		// Three windows leave no second window to spill; eight do, but
		// only the recursion-heavy kernels trap there.
		{SaveStackBytes: 64 << 10, Windows: 8, SpillBatch: 2},
	}
	for _, b := range prog.All() {
		img := compileBench(t, b)
		for _, cfg := range cfgs {
			if cfg.Windows == 8 && !b.CallHeavy {
				continue
			}
			for _, p := range []Policy{PolicyDelayed, PolicySquash} {
				name := fmt.Sprintf("%s/%v/windows=%d", b.Name, p, cfg.Windows)
				m, err := comparePricing(t, name, cfg, p, img)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.hits == 0 {
					t.Errorf("%s: no run was priced from the memo", name)
				}
				if b.Name == "acker" && cfg.Windows == 8 && m.CPU().Stats().WindowBatchSpills == 0 {
					t.Errorf("%s: no trap spilled more than one window", name)
				}
			}
		}
	}
}

// TestMemoHitRate pins the speed mechanism: on every suite kernel at least
// 95% of the runs the core reports are priced from the memo. A key that
// stopped repeating (one that included an absolute cycle, say) would still
// price correctly and fail only here.
func TestMemoHitRate(t *testing.T) {
	cfg := core.Config{SaveStackBytes: 64 << 10}
	m := New(cfg, PolicyDelayed)
	for _, b := range prog.All() {
		if err := m.Load(compileBench(t, b)); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		runs := m.hits + m.misses
		if rate := float64(m.hits) / float64(runs); rate < 0.95 {
			t.Errorf("%s: %d of %d runs priced from the memo (%.1f%%), want >= 95%%",
				b.Name, m.hits, runs, 100*rate)
		}
		if runs >= m.Result().Instructions {
			t.Errorf("%s: %d runs for %d instructions: the core is not reporting blocks",
				b.Name, runs, m.Result().Instructions)
		}
	}
}

// TestBatchCutPrefixRuns pins the core's prefix runs, which keep block
// pricing cheap where a batch cut falls inside a block: on every suite
// kernel under a Retire hook, single-instruction runs other than a control
// word and its delay slot stay under 2% of the instructions. Stepping the
// rest of each cut block instead reads about 5% over the suite.
func TestBatchCutPrefixRuns(t *testing.T) {
	for _, b := range prog.All() {
		c := core.New(core.Config{SaveStackBytes: 64 << 10})
		if err := c.Load(compileBench(t, b)); err != nil {
			t.Fatal(err)
		}
		var lone uint64
		slot := false // the previous run was a lone transfer owning a slot
		c.Retire = func(_ uint32, insts []isa.Inst, _ bool) {
			op := insts[0].Op
			if len(insts) == 1 && !op.Transfers() && !slot {
				lone++
			}
			slot = len(insts) == 1 && op.Transfers() && op != isa.OpCALLINT
		}
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		n := c.Stats().Instructions
		if pct := 100 * float64(lone) / float64(n); pct >= 2 {
			t.Errorf("%s: %d single-instruction runs off a transfer or slot in %d instructions (%.2f%%), want < 2%%",
				b.Name, lone, n, pct)
		}
	}
}

// TestMemoSelfPatchRewarms checks the self-modifying-code rule: the store
// that rewrites an already-described instruction flushes the memo, and the
// loop's later trips are priced from it again.
func TestMemoSelfPatchRewarms(t *testing.T) {
	img := assemble(t, selfPatchSrc)
	m := New(core.Config{}, PolicyDelayed)
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	for m.flushes == 0 {
		if err := m.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
		if m.CPU().Halted() {
			t.Fatal("the patch never invalidated the memo")
		}
	}
	hits := m.hits
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.flushes != 1 {
		t.Errorf("memo flushed %d times, want 1", m.flushes)
	}
	if m.hits == hits {
		t.Error("no run was priced from the memo after the patch")
	}
	if _, err := comparePricing(t, "selfpatch", core.Config{}, PolicyDelayed, img); err != nil {
		t.Fatal(err)
	}
}

// ownBlockPatchSrc stores, on its second trip, over the leader of the very
// block doing the store. The block stops after the store with the old
// instruction retired, and the next trip runs the new one at the same
// leader: the descriptors checked by the storing run must not be trusted.
const ownBlockPatchSrc = `
main:	la donor,r3
	ldl (r3)#0,r5       ; r5 = encoding of "ldl (r1)#0,r2"
	la data,r4          ; the first trip stores harmlessly
	la data,r1
	add r0,#0,r6
	b patch
	nop
patch:	add r1,#0,r2        ; the second trip overwrites this from its own block
	add r2,#1,r7
	add r6,#1,r6
	stl r5,(r4)#0
	cmp r6,#4
	blt next
	nop
	ret r25,#8
	nop
next:	la patch,r4
	b patch
	nop
	.align 4
data:	.word 41
donor:	ldl (r1)#0,r2
`

// TestMemoStoreIntoOwnBlock prices a block that patches its own leader
// exactly as steps that re-check every descriptor.
func TestMemoStoreIntoOwnBlock(t *testing.T) {
	img := assemble(t, ownBlockPatchSrc)
	for _, p := range []Policy{PolicyDelayed, PolicySquash} {
		m, err := comparePricing(t, "ownblock", core.Config{}, p, img)
		if err != nil {
			t.Fatal(err)
		}
		if m.flushes == 0 {
			t.Errorf("%v: the patch did not invalidate the memo", p)
		}
	}
}

// TestMemoFaultMidBlock prices the retired prefix of a block that faults
// in its middle, and of a block stopped by MaxCycles, exactly as steps.
func TestMemoFaultMidBlock(t *testing.T) {
	img := assemble(t, faultMidBlockSrc)
	for _, p := range []Policy{PolicyDelayed, PolicySquash} {
		_, err := comparePricing(t, "fault", core.Config{}, p, img)
		var f *mem.Fault
		if !errors.As(err, &f) || !f.OutOfMem {
			t.Fatalf("%v: want the mid-block load fault, got %v", p, err)
		}
		for limit := uint64(100); limit < 140; limit++ {
			_, err := comparePricing(t, fmt.Sprintf("maxcycles=%d", limit), core.Config{MaxCycles: limit}, p, img)
			if !errors.Is(err, core.ErrMaxCycles) {
				t.Fatalf("%v: limit %d: want ErrMaxCycles, got %v", p, limit, err)
			}
		}
	}
}

// faultMidBlockSrc warms a loop whose block ends on a branch, then runs a
// straight-line block that faults on its middle load.
const faultMidBlockSrc = `
main:	add r0,#0,r1
loop:	add r1,#1,r1
	ldl (r0)#0,r5
	add r5,#1,r6
	cmp r1,#20
	blt loop
	nop
	ldhi r2,#0x3ffff
	add r1,#2,r1
	ldl (r2)#0,r3
	add r1,#3,r1
	ret r25,#8
	nop
`
