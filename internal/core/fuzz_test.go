package core

import (
	"math/rand"
	"testing"

	"risc1/internal/asm"
)

// TestRandomWordsNeverPanic feeds the CPU programs of random 32-bit words.
// Whatever garbage is fetched — undefined opcodes, wild jumps, misaligned
// accesses, runaway loops — execution must end in a clean error or halt,
// never a panic. This is the simulator's equivalent of a hardware machine
// never wedging its control unit.
func TestRandomWordsNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		c := New(Config{MemSize: 1 << 16, MaxCycles: 20000})
		words := make([]byte, 256)
		r.Read(words)
		if err := c.Mem.LoadProgram(0, words); err != nil {
			t.Fatal(err)
		}
		// Hand-crafted reset (no assembler image): start at 0.
		c.pc, c.npc = 0, 4
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: panic: %v\nwords: % x", trial, p, words[:32])
				}
			}()
			for !c.Halted() {
				if err := c.Step(); err != nil {
					return // clean fault
				}
				if c.Stats().Cycles > 20000 {
					return
				}
			}
		}()
	}
}

// TestRandomValidInstructionsNeverPanic is the stronger variant: streams of
// structurally valid instructions with random fields, which reach deep into
// the execution paths (window slides, PSW writes, stores) rather than
// faulting at decode.
func TestRandomValidInstructionsNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ops := []string{
		"add r%d,#%d,r%d", "sub! r%d,#%d,r%d", "xor r%d,#%d,r%d",
		"sll r%d,#%d,r%d", "ldl (r9)#%d,r%d", "stl r%d,(r9)#%d",
		"jmpr eq,#%d", "callr r25,#%d", "getpsw r%d", "putpsw r%d,#%d",
		"ldhi r%d,#%d",
	}
	for trial := 0; trial < 200; trial++ {
		var src []byte
		for i := 0; i < 40; i++ {
			line := ops[r.Intn(len(ops))]
			args := make([]any, 0, 3)
			for j := 0; j < countPct(line); j++ {
				args = append(args, r.Intn(32))
			}
			src = append(src, []byte("\t"+sprintfLine(line, args)+"\n")...)
		}
		img, err := asm.Assemble("main:\n" + string(src) + "\tret r25,#8\n\tnop\n")
		if err != nil {
			continue // out-of-range relative target etc: fine
		}
		c := New(Config{MemSize: 1 << 16, MaxCycles: 5000})
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: panic: %v\nprogram:\n%s", trial, p, src)
				}
			}()
			_ = c.Run() // errors are acceptable; panics are not
		}()
	}
}

// FuzzExec is the native-fuzzing form of TestRandomWordsNeverPanic: the
// fuzzer mutates raw code bytes and the CPU must fault cleanly or halt,
// never panic. Run continuously with `go test -fuzz=FuzzExec ./internal/core`.
func FuzzExec(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x22, 0x00, 0x00, 0x01, 0x88, 0x32, 0x00, 0x08}) // add + ret-ish
	seed := make([]byte, 64)
	rand.New(rand.NewSource(7)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) == 0 || len(code) > 4096 {
			return
		}
		c := New(Config{MemSize: 1 << 16, MaxCycles: 20000})
		if err := c.Mem.LoadProgram(0, code); err != nil {
			return
		}
		c.pc, c.npc = 0, 4
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("panic: %v\ncode: % x", p, code)
			}
		}()
		for !c.Halted() {
			if err := c.Step(); err != nil {
				return // clean fault (including the exact MaxCycles abort)
			}
		}
	})
}

// FuzzEngineEquivalence is the differential fuzzer for the block engine:
// the same code bytes run under the step oracle and the block engine, and
// the complete observable outcome — PC state at three mid-run checkpoints
// and at the end, Stats(), console output, and fault identity — must match
// exactly; the two must also make the same Progress calls and report the
// same Retire stream, and the counters must satisfy acct.Check's
// identities. The checkpoints come from truncating MaxCycles, which
// exercises the batched-accounting split at arbitrary block offsets. Seeds
// deliberately include hostile hot loops: one whose branch flips direction
// after many trips, one that stores over its own compiled body
// (invalidating a running block), and ones that fault in a body or a
// delay slot after many block runs.
func FuzzEngineEquivalence(f *testing.F) {
	// Limits stay below 30000: the body takes limit mod 30000, so 30000
	// itself would mean MaxCycles 1.
	f.Add(asm.MustAssemble(loopSrc).Bytes, uint32(29999))
	f.Add(asm.MustAssemble(sumProgram(12)).Bytes, uint32(29999))
	f.Add([]byte{0x22, 0x00, 0x00, 0x01, 0x88, 0x32, 0x00, 0x08}, uint32(100))
	// A flipping branch: blt is taken for 40 trips, then falls through.
	f.Add(asm.MustAssemble(`
	main:	add r0,#0,r1
	loop:	add r1,#1,r1
		cmp r1,#40
		blt loop
		sub r1,#1,r2
		ret r25,#8
		nop
	`).Bytes, uint32(20000))
	// Self-modifying store into a compiled block: after 20 trips the loop
	// patches its own body, which must invalidate the block exactly at the
	// store boundary.
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
	// A body fault: the load's address register climbs until the access
	// leaves memory, long after the loop's block compiled.
	f.Add(asm.MustAssemble(`
	main:	li #0x8000,r1
	loop:	add r1,#64,r1
		ldl (r1)#0,r2
		cmp r2,#1
		bne loop
		nop
		ret r25,#8
		nop
	`).Bytes, uint32(29999))
	// Hot loops that fault in a delay slot and in their first block, and
	// that store into their own code from a body and from a slot.
	f.Add(asm.MustAssemble(hotSlotFaultSrc).Bytes, uint32(29999))
	f.Add(asm.MustAssemble(hotTwoBlockFaultSrc).Bytes, uint32(29999))
	f.Add(asm.MustAssemble(hotCodeStoreSrc).Bytes, uint32(29999))
	f.Add(asm.MustAssemble(hotSlotCodeStoreSrc).Bytes, uint32(29999))
	seed := make([]byte, 128)
	rand.New(rand.NewSource(41)).Read(seed)
	f.Add(seed, uint32(5000))
	f.Fuzz(func(t *testing.T, code []byte, limit uint32) {
		if len(code) == 0 || len(code) > 4096 {
			return
		}
		budget := 1 + uint64(limit)%30000
		img := &asm.Image{Org: 0, Entry: 0, Bytes: code}
		for _, mc := range []uint64{budget/4 + 1, budget/2 + 1, budget} {
			cfg := Config{MemSize: 1 << 16, MaxCycles: mc}
			_, cb := diffImage(t, cfg, img, nil)
			checkAcct(t, "block", cb)
		}
	})
}

func countPct(s string) int {
	n := 0
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '%' && s[i+1] == 'd' {
			n++
		}
	}
	return n
}

func sprintfLine(format string, args []any) string {
	out := make([]byte, 0, len(format)+8)
	ai := 0
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) && format[i+1] == 'd' {
			v := args[ai].(int)
			ai++
			out = appendInt(out, v)
			i++
			continue
		}
		out = append(out, format[i])
	}
	return string(out)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [8]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
