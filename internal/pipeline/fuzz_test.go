package pipeline

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/isa"
)

// FuzzPipelineOracle runs raw code bytes on the single-cycle step oracle and
// on the pipelined machine under both policies. The pipeline may only change
// how many cycles the execution takes: the fault, console, PC, registers and
// stats must be the oracle's, the timing layer's own instruction, transfer
// and delay-slot counts must agree with the oracle's, and every cycle must be
// attributed. The memoized block pricing of Run must also equal pricing one
// bypassed Step at a time. A panic fails the run, so the fixed-size
// memory-port queue is checked for overflow on every input. Seeds include a
// loop that patches an instruction it has already retired, which the
// descriptor cache and the memo must notice, recursion deep enough to take
// window traps at call and return terminators, a leader entered with
// different hazard tails, a branch that flips at one leader, a fault in the
// middle of a block and a cycle limit that lands inside one.
//
//	go test -fuzz=FuzzPipelineOracle ./internal/pipeline
func FuzzPipelineOracle(f *testing.F) {
	f.Add(asm.MustAssemble(selfPatchSrc).Bytes, uint32(20000))
	f.Add(asm.MustAssemble(sumProgram(12)).Bytes, uint32(30000))
	// One leader (join) entered from two predecessors: after a load whose
	// value join reads at once, and after an ALU write it forwards.
	f.Add(asm.MustAssemble(`
	main:	add r0,#0,r1
		li #0x400,r2
	loop:	add r1,#1,r1
		and r1,#1,r3
		cmp r3,#0
		beq even
		nop
		ldl (r2)#0,r4
		b join
		nop
	even:	add r1,#7,r4
		b join
		add r4,#1,r4
	join:	add r4,r1,r5
		stl r5,(r2)#0
		cmp r1,#40
		blt loop
		nop
		ret r25,#8
		nop
	`).Bytes, uint32(20000))
	// A branch at one leader that is taken every third trip, so the same
	// block retires with both outcomes and both delay-slot states follow.
	f.Add(asm.MustAssemble(`
	main:	add r0,#0,r1
		add r0,#0,r2
	loop:	add r2,#1,r2
		cmp r2,#3
		bne skip
		add r1,#1,r1
		add r0,#0,r2
	skip:	cmp r1,#30
		blt loop
		nop
		ret r25,#8
		nop
	`).Bytes, uint32(20000))
	// Call and return terminators that spill and fill: recursion deeper
	// than the window file, run twice so the second descent hits the memo.
	f.Add(asm.MustAssemble(strings.Replace(sumProgram(20), "nop\n", `nop
		add r0,#20,r10
		callr r25,sum
		nop
	`, 1)).Bytes, uint32(30000))
	// A block that stores over its own leader.
	f.Add(asm.MustAssemble(ownBlockPatchSrc).Bytes, uint32(20000))
	// A load faulting in the middle of a block, after its loop warmed up.
	f.Add(asm.MustAssemble(faultMidBlockSrc).Bytes, uint32(20000))
	// A cycle limit that lands inside the loop's block.
	f.Add(asm.MustAssemble(faultMidBlockSrc).Bytes, uint32(117))
	// The core engines' self-modifying seed: once hot, the loop stores a
	// different ALU operation over its own body.
	f.Add(asm.MustAssemble(`
	main:	li #donor,r3
		ldl (r3)#0,r1
		li #patch,r4
		add r0,#0,r2
	patch:	add r2,#1,r2
		cmp r2,#30
		bge done
		nop
		cmp r2,#20
		blt patch
		nop
		stl r1,(r4)#0
		b patch
		nop
	done:	ret r25,#8
		nop
	donor:	add r2,#3,r2
	`).Bytes, uint32(20000))
	// Back-to-back loads, a load feeding a store's data, and a flag-setting
	// load feeding a conditional jump.
	f.Add(asm.MustAssemble(`
	main:	li #0x400,r1
		stl r1,(r1)#0
		ldl (r1)#0,r2
		ldl (r1)#0,r3
		stl r3,(r1)#4
		ldl! (r1)#4,r4
		beq main
		nop
		ret r25,#8
		nop
	`).Bytes, uint32(5000))
	f.Add([]byte{0x22, 0x00, 0x00, 0x01, 0x88, 0x32, 0x00, 0x08}, uint32(100))
	seed := make([]byte, 128)
	rand.New(rand.NewSource(41)).Read(seed)
	f.Add(seed, uint32(5000))
	f.Fuzz(func(t *testing.T, code []byte, limit uint32) {
		if len(code) == 0 || len(code) > 4096 {
			return
		}
		cfg := core.Config{MemSize: 1 << 16, MaxCycles: 1 + uint64(limit)%30000}
		img := &asm.Image{Org: 0, Entry: 0, Bytes: code}

		// The oracle counts its own retirements: an instruction that faults
		// in execution is in its stats but never retires.
		oracle := core.New(cfg)
		var retired uint64
		oracle.Retire = func(_ uint32, insts []isa.Inst, _ bool) { retired += uint64(len(insts)) }
		if err := oracle.Load(img); err != nil {
			t.Fatalf("oracle load: %v", err)
		}
		oerr := oracle.Run()
		ost := oracle.Stats()
		lost := ost.Instructions - retired
		if lost > 1 || lost == 1 && (oerr == nil || errors.Is(oerr, core.ErrMaxCycles)) {
			t.Fatalf("oracle counted %d instructions, retired %d (err %v)", ost.Instructions, retired, oerr)
		}

		for _, p := range []Policy{PolicyDelayed, PolicySquash} {
			m := New(cfg, p)
			if err := m.Load(img); err != nil {
				t.Fatalf("%v: load: %v", p, err)
			}
			perr := m.Run()
			cpu := m.CPU()
			if (oerr == nil) != (perr == nil) || oerr != nil && oerr.Error() != perr.Error() {
				t.Fatalf("%v: fault mismatch:\noracle:   %v\npipeline: %v", p, oerr, perr)
			}
			if cpu.PC() != oracle.PC() || cpu.Halted() != oracle.Halted() ||
				cpu.Flags() != oracle.Flags() || cpu.Regs.CWP() != oracle.Regs.CWP() {
				t.Fatalf("%v: pc/halt/flags/cwp %#x/%v/%+v/%d, oracle %#x/%v/%+v/%d", p,
					cpu.PC(), cpu.Halted(), cpu.Flags(), cpu.Regs.CWP(),
					oracle.PC(), oracle.Halted(), oracle.Flags(), oracle.Regs.CWP())
			}
			for reg := uint8(0); reg < isa.NumVisibleRegs; reg++ {
				if cpu.Reg(reg) != oracle.Reg(reg) {
					t.Fatalf("%v: r%d = %#x, oracle %#x", p, reg, cpu.Reg(reg), oracle.Reg(reg))
				}
			}
			if cpu.Console() != oracle.Console() {
				t.Fatalf("%v: console %q, oracle %q", p, cpu.Console(), oracle.Console())
			}
			if st := cpu.Stats(); !reflect.DeepEqual(*st, *ost) {
				t.Fatalf("%v: stats diverged:\n pipeline %+v\n oracle   %+v", p, *st, *ost)
			}

			ref, rerr := stepPriced(cfg, p, img)
			if (rerr == nil) != (perr == nil) || rerr != nil && rerr.Error() != perr.Error() {
				t.Fatalf("%v: fault mismatch:\nrun:  %v\nstep: %v", p, perr, rerr)
			}
			r := m.Result()
			if want := ref.Result(); r != want || m.pending != ref.pending {
				t.Fatalf("%v: block pricing differs from step pricing:\n run  %+v (+%d pending)\n step %+v (+%d pending)",
					p, r, m.pending, want, ref.pending)
			}
			if m.cwp != cpu.Regs.CWP() {
				t.Fatalf("%v: pricer window %d, oracle %d", p, m.cwp, cpu.Regs.CWP())
			}
			if r.Instructions != retired {
				t.Fatalf("%v: result instructions = %d, oracle retired %d", p, r.Instructions, retired)
			}
			if r.Transfers != ost.Transfers || r.TakenTransfers != ost.TakenTransfers {
				t.Fatalf("%v: transfers %d/%d taken, oracle %d/%d",
					p, r.Transfers, r.TakenTransfers, ost.Transfers, ost.TakenTransfers)
			}
			// A faulting delay-slot instruction is a slot to the oracle
			// but never retired.
			slots := ost.DelaySlotNops + ost.DelaySlotUseful
			if r.DelaySlots > slots || r.DelaySlots+lost < slots ||
				r.DelaySlotsFilled > ost.DelaySlotUseful || r.DelaySlotsFilled+lost < ost.DelaySlotUseful {
				t.Fatalf("%v: delay slots %d (%d filled), oracle %d (%d useful), %d unretired",
					p, r.DelaySlots, r.DelaySlotsFilled, slots, ost.DelaySlotUseful, lost)
			}
			if p == PolicyDelayed && r.FlushBubbleCycles != 0 {
				t.Fatalf("delayed policy charged %d flush bubbles", r.FlushBubbleCycles)
			}
			// Every cycle is an instruction, fill/drain, or a stall. A trap
			// drain or squash bubble charged by the last retirement to a
			// successor that never came is the only slack.
			if r.Instructions > 0 {
				if want := r.Instructions + 4 + r.StallCycles(); r.Cycles+m.pending != want {
					t.Fatalf("%v: cycles %d + %d pending, want instructions+4+stalls = %d (%+v)",
						p, r.Cycles, m.pending, want, r)
				}
			}
		}
	})
}
