package cc

// SMP runtime for RISC I: spawn/join over the memory-mapped control page
// and a spinlock over the test-and-set lock page (see internal/mem's
// smpdev.go for the device contract). These routines are windowed-only —
// genSMPBuiltin rejects the flat target — because the spawn fallback's
// nested call leans on the window overlap and the spin loops keep state in
// LOCAL registers, which the flat convention does not have to spare.
//
// Device addresses reach through r0 with negative 13-bit displacements:
//	#-768  0xFFFFFD00  lock page (test-and-set words)
//	#-504  0xFFFFFE08  SPAWNARG
//	#-500  0xFFFFFE0C  SPAWNFN / spawn handle
//	#-448  0xFFFFFE40  join page (word per handle, 1 while running)

// runtimeSpawn emits __spawn(fn, arg) -> handle. Storing the staged fn
// address fires the scheduler's spawn; a handle of -1 (no free core, or no
// SMP controller at all) falls back to calling fn inline on this core, so
// parallel programs degrade to correct sequential ones anywhere.
func runtimeSpawn(r rtRegs) string {
	return expandRT(`
; ---- runtime: spawn a worker core ----
__spawn:
	stl {b},(r0)#-504       ; stage the argument
	stl {a},(r0)#-500       ; fn address: fires the spawn
	ldl (r0)#-500,{t1}      ; handle, or -1
	cmp {t1},#-1
	bne .Lspawn_done
	nop
	mov {b},r10             ; no free core: run fn inline right here
	call {link},({a})#0
	nop
	add r0,#-1,{t1}         ; inline handle: join treats -1 as done
.Lspawn_done:
	mov {t1},{ret}
	ret {link},#8
	nop
`, r)
}

// runtimeJoin emits __join(handle): spin until the worker halts. The join
// page reads 0 for a halted worker, an out-of-range handle, or no
// controller, so joining an inline-call handle (-1) returns immediately.
func runtimeJoin(r rtRegs) string {
	return expandRT(`
; ---- runtime: join a worker core ----
__join:
	cmp {a},#0
	blt .Ljoin_done         ; inline-call handle: already complete
	nop
	sll {a},#2,{t1}         ; handle -> join-page offset
.Ljoin_wait:
	ldl ({t1})#-448,{t2}    ; 1 while the worker still runs
	cmp {t2},#0
	bne .Ljoin_wait
	nop
.Ljoin_done:
	ret {link},#8
	nop
`, r)
}

// runtimeLock emits __lock(n): spin on test-and-set word n. The load
// returns the word's previous value and sets it; 0 means we took it.
func runtimeLock(r rtRegs) string {
	return expandRT(`
; ---- runtime: take spinlock n ----
__lock:
	sll {a},#2,{t1}
.Llock_spin:
	ldl ({t1})#-768,{t2}    ; test-and-set: old value, sets 1
	cmp {t2},#0
	bne .Llock_spin
	nop
	ret {link},#8
	nop
`, r)
}

// runtimeUnlock emits __unlock(n): release test-and-set word n.
func runtimeUnlock(r rtRegs) string {
	return expandRT(`
; ---- runtime: release spinlock n ----
__unlock:
	sll {a},#2,{t1}
	stl r0,({t1})#-768
	ret {link},#8
	nop
`, r)
}
