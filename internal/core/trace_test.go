package core

import (
	"testing"

	"risc1/internal/asm"
)

// These tests pin the trace tier's own surface — heat counters, compile
// and invalidation bookkeeping, the profile API — on top of the
// observational equivalence that engine_test.go and the fuzzer already
// enforce for every program here.

// runTrace runs src under EngineAuto with an aggressive hot threshold so
// traces compile within small test workloads.
func runTrace(t *testing.T, src string) *CPU {
	t.Helper()
	c := New(Config{Engine: EngineAuto, HotThreshold: 2})
	if err := c.Load(asm.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTraceCompilesHotLoop: the canonical counting loop must get a trace,
// and once it has one the bulk of the dynamic instruction stream must
// retire inside it — this is what the batch-alignment protocol (ending a
// batch early rather than limping into a trace head) buys.
func TestTraceCompilesHotLoop(t *testing.T) {
	c := runTrace(t, loopSrc)
	ts := c.TraceStats()
	if ts.Compiled == 0 {
		t.Fatalf("no trace compiled: %+v", ts)
	}
	total := c.Stats().Instructions
	if ts.Instructions < total/2 {
		t.Fatalf("only %d of %d instructions retired in traces", ts.Instructions, total)
	}
	if c.HotThreshold() != 2 {
		t.Fatalf("HotThreshold() = %d, want 2", c.HotThreshold())
	}
}

// TestTraceSideExit: the loop branch is taken long past the threshold and
// then falls through, so the compiled superblock must take its guarded
// side exit at least once.
func TestTraceSideExit(t *testing.T) {
	c := runTrace(t, `
	main:	add r0,#0,r1
	loop:	add r1,#1,r1
		cmp r1,#40
		blt loop
		nop
		ret r25,#8
		nop
	`)
	ts := c.TraceStats()
	if ts.Compiled == 0 || ts.SideExits == 0 {
		t.Fatalf("expected a compiled trace with a side exit: %+v", ts)
	}
	if got := c.Reg(1); got != 40 {
		t.Fatalf("r1 = %d, want 40", got)
	}
}

// TestTraceInvalidationAndRewarm: a hot loop stores over its own body.
// The store must drop the trace (invalidation), and since the patched
// loop keeps spinning, the leader must re-warm and compile a fresh trace
// over the new bytes.
func TestTraceInvalidationAndRewarm(t *testing.T) {
	c := runTrace(t, `
	main:	li #donor,r3
		ldl (r3)#0,r1
		li #patch,r4
		add r0,#0,r2
	patch:	add r2,#1,r2
		cmp r2,#60
		bge done
		nop
		cmp r2,#30
		blt patch
		nop
		stl r1,(r4)#0
		b patch
		nop
	done:	ret r25,#8
		nop
	donor:	add r2,#3,r2
	`)
	ts := c.TraceStats()
	if ts.Invalidations == 0 {
		t.Fatalf("store into trace body did not invalidate: %+v", ts)
	}
	if ts.Compiled < 2 {
		t.Fatalf("patched loop did not re-warm into a fresh trace: %+v", ts)
	}
}

// TestTraceStatsZeroOffTier: the block and step engines never touch the
// trace tier, so its counters stay zero there.
func TestTraceStatsZeroOffTier(t *testing.T) {
	img := asm.MustAssemble(loopSrc)
	for _, e := range []Engine{EngineBlock, EngineStep} {
		c := New(Config{Engine: e, HotThreshold: 2})
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if ts := c.TraceStats(); ts != (TraceStats{}) {
			t.Fatalf("%v engine has trace stats: %+v", e, ts)
		}
	}
}

// TestHeatProfile: the profile must rank the loop leader hottest, mark it
// as covered by a live trace, and come out sorted.
func TestHeatProfile(t *testing.T) {
	c := runTrace(t, loopSrc)
	prof := c.HeatProfile()
	if len(prof) == 0 {
		t.Fatal("empty heat profile after a hot loop")
	}
	for i := 1; i < len(prof); i++ {
		if prof[i].Count > prof[i-1].Count {
			t.Fatalf("profile not sorted: %+v", prof)
		}
	}
	hot := prof[0]
	if !hot.Trace {
		t.Fatalf("hottest block %#x not inside a live trace: %+v", hot.PC, prof)
	}
	// The loop leader is the third instruction (add r0 / li are the
	// prologue): word 2 of the image.
	if hot.PC != 8 {
		t.Fatalf("hottest PC = %#x, want 0x8 (loop leader)", hot.PC)
	}
}

// TestHotNGrams: the measured dynamic n-gram profile must surface the
// loop body's add/sub(cmp)/jmpr sequence with a dominant count.
func TestHotNGrams(t *testing.T) {
	c := runTrace(t, loopSrc)
	for _, n := range []int{2, 3} {
		grams := c.HotNGrams(n, 8)
		if len(grams) == 0 {
			t.Fatalf("no %d-grams measured", n)
		}
		for _, g := range grams {
			if len(g.Ops) != n {
				t.Fatalf("%d-gram with %d ops: %+v", n, len(g.Ops), g)
			}
			if g.Count == 0 {
				t.Fatalf("zero-count n-gram survived ranking: %+v", grams)
			}
		}
		for i := 1; i < len(grams); i++ {
			if grams[i].Count > grams[i-1].Count {
				t.Fatalf("%d-grams not sorted: %+v", n, grams)
			}
		}
	}
	// Clamping: out-of-range n snaps into [2, 3].
	if got := c.HotNGrams(7, 1); len(got) == 0 || len(got[0].Ops) != 3 {
		t.Fatalf("HotNGrams(7) did not clamp to trigrams: %+v", got)
	}
}

// TestTraceAcrossCall: a hot loop whose body calls a tiny leaf routine
// still traces (chain form), and the windowed state stays exact — the
// equivalence is checked by diffEngines, here we pin that the tier
// engages at all on call-bearing paths.
func TestTraceAcrossCall(t *testing.T) {
	src := `
	main:	add r0,#0,r16
		li #200,r17
	loop:	callr r25,leaf
		nop
		add r16,#1,r16
		cmp r16,r17
		blt loop
		nop
		ret r25,#8
		nop
	leaf:	add r16,#0,r16
		ret r25,#8
		nop
	`
	diffEngines(t, Config{HotThreshold: 2}, src)
	c := runTrace(t, src)
	if ts := c.TraceStats(); ts.Compiled == 0 || ts.Instructions == 0 {
		t.Fatalf("call-bearing loop never traced: %+v", ts)
	}
}
