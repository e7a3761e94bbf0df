package smp

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/prog"
)

// selfModSrc is a cross-core self-modification scenario: the worker spins
// in a tight loop whose body the block engine will have cached as a block
// long before core 0 finishes its delay loop and stores a new instruction
// word over `patchme`. The worker's accumulator then tells us exactly which
// mix of old and new code retired. Every engine retires the same
// instructions per quantum, so the interleaving, and with it the
// accumulator, is the same under all of them; a stale cached block would
// leave it at exactly 10000 (all old code) and a patch that never raced
// the loop at exactly 20000.
const selfModSrc = `
main:	add r0,#7,r2
	stl r2,(r0)#-504	; SPAWNARG
	la wloop,r1
	stl r1,(r0)#-500	; SPAWNFN: fires the spawn
	ldl (r0)#-500,r5	; handle
	li #1000,r3
	add r0,#0,r2
delay:	add r2,#1,r2
	cmp r2,r3
	blt delay
	nop
	la newcode,r7		; patch: overwrite the worker's loop body
	ldl (r7)#0,r8
	la patchme,r6
	stl r8,(r6)#0
	sll r5,#2,r6
join:	ldl (r6)#-448,r7	; spin until the worker halts
	cmp r7,#0
	bne join
	nop
	la result,r4
	ldl (r4)#0,r1
	stl r1,(r0)#-252	; putint
	ret r25,#8
	nop

wloop:	add r0,#0,r1		; acc
	add r0,#0,r2		; i
	li #10000,r3
wbody:
patchme:
	add r1,#1,r1		; becomes add r1,#2,r1 when patched
	add r2,#1,r2
	cmp r2,r3
	blt wbody
	nop
	la result,r4
	stl r1,(r4)#0
	ret r25,#8		; link is the halt address
	nop

newcode:
	add r1,#2,r1		; never executed here; core 0 copies the word

	.align 4
result:	.word 0
`

func runSelfMod(t *testing.T, e core.Engine) string {
	t.Helper()
	img := asm.MustAssemble(selfModSrc)
	m, err := New(img, Config{Cores: 2, Core: core.Config{Engine: e}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background()); err != nil {
		t.Fatalf("engine %v: %v", e, err)
	}
	return m.Console()
}

// TestSelfModifyingCrossCore drives a store from core 0 into code another
// core has hot in its (shared) block cache. The write-watch must invalidate
// the shared cache so the worker picks up the new instruction at the same
// architectural point the step oracle does: both engines must print the
// same accumulator.
func TestSelfModifyingCrossCore(t *testing.T) {
	want := runSelfMod(t, core.EngineStep)
	// Both generations of the loop body must actually have run: all-old
	// would read 10000, all-new 20000.
	v, err := strconv.Atoi(want)
	if err != nil {
		t.Fatalf("console %q not an int: %v", want, err)
	}
	if v <= 10000 || v >= 20000 {
		t.Fatalf("accumulator %d: patch did not land mid-run (want 10000 < v < 20000)", v)
	}
	// A step rerun checks that the interleaving is deterministic, and the
	// block engine must run the same one.
	for _, e := range []core.Engine{core.EngineStep, core.EngineAuto} {
		if got := runSelfMod(t, e); got != want {
			t.Fatalf("engine %v: accumulator %s, step %s", e, got, want)
		}
	}
}

// TestRaceHammer runs many SMP machines concurrently — spawning workers,
// taking locks, and cross-core-patching code — so `go test -race` can
// vet that machines share no hidden mutable state and that the
// single-goroutine scheduler really is single-goroutine.
func TestRaceHammer(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				img := asm.MustAssemble(selfModSrc)
				m, err := New(img, Config{Cores: 2, Core: core.Config{Engine: core.EngineAuto}})
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Run(context.Background()); err != nil {
					t.Error(err)
				}
				return
			}
			img := compileKernel(t, "psum")
			m, err := New(img, Config{Cores: 4, Core: core.Config{Engine: core.EngineAuto}})
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Run(context.Background()); err != nil {
				t.Error(err)
				return
			}
			if got, want := m.Console(), prog.Expected("psum"); got != want {
				t.Errorf("psum under hammer: %q, want %q", got, want)
			}
		}(g)
	}
	wg.Wait()
}

// spinSrc never halts: core 0 parks in a branch-to-self while a worker
// spins too, so cancellation is the only way out.
const spinSrc = `
main:	add r0,#7,r2
	stl r2,(r0)#-504
	la wspin,r1
	stl r1,(r0)#-500
	cmp r0,#0
spin:	beq spin
	nop

wspin:	cmp r0,#0
wspin2:	beq wspin2
	nop
`

// TestCancellationNoLeak cancels a run mid-flight and checks both the
// error contract (a CoreError wrapping context.Canceled) and that the
// scheduler leaves no goroutines behind.
func TestCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	img := asm.MustAssemble(spinSrc)
	m, err := New(img, Config{Cores: 2, Core: core.Config{Engine: core.EngineAuto}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	err = m.Run(ctx)
	var ce *CoreError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CoreError", err, err)
	}
	if ce.Core != 0 || !errors.Is(ce.Err, context.Canceled) {
		t.Fatalf("CoreError = %+v, want core 0 / context.Canceled", ce)
	}
	// The run was mid-flight, not a no-op: rounds were executed.
	if m.Rounds() == 0 {
		t.Fatal("cancelled before any rounds ran")
	}
	// Give the AfterFunc goroutine a moment to retire, then compare.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}
