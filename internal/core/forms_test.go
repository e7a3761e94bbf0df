package core

import (
	"fmt"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/isa"
)

// The compiled forms of every blockable instruction, pinned against Step:
// each opcode × immediate or register operand × SCC on or off × r0 or a
// live destination, on edge operands, run as a block body op, as the delay
// slot of a JMPR (the fast terminator) and of a CALLR (the generic
// control path), inside a hot loop whose block runs again and again, and,
// for a flag-setting SUB before a JMPR, as the fused compare-and-branch.
// Every run goes through the step oracle and the block engine (auto), which
// must agree on registers, flags, memory, Stats and the PC pair.

// Operand registers are globals, so a slot after CALLR (which runs in the
// callee's window) reads and writes the same values as the other contexts.
const (
	formRs1  = 1
	formRs2  = 2
	formRd   = 3
	formLoop = 4 // the hot loop's counter

	formData    = 0x2000  // a data area seeded with formPattern
	formMemSize = 1 << 15 // the top half is the register save stack
)

// formPattern seeds formData so loads see zero, sign-extending and
// positive bytes and halfwords.
var formPattern = []byte{0x80, 0xFF, 0x01, 0x7F, 0x00, 0x00, 0x00, 0x00, 0xFE, 0xDC, 0xBA, 0x98}

// formValues are the edge values of the first operand, and addresses in
// the data area, aligned and not.
var formValues = []uint32{0, 1, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, formData, formData + 1}

// formRegS2 are the second operand's values in a register, shift counts
// of 32 and beyond (which the shifters take mod 32) among them.
var formRegS2 = []uint32{0, 1, 31, 32, 33, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 4}

// formImm are the immediates: shift counts and the 13-bit extremes.
var formImm = []int32{0, 1, -1, 31, 32, 4, isa.MaxImm13, isa.MinImm13}

// blockableOps lists every opcode the block engine compiles.
func blockableOps() []isa.Op {
	var ops []isa.Op
	for _, op := range isa.Ops() {
		if blockable(isa.Inst{Op: op}) {
			ops = append(ops, op)
		}
	}
	return ops
}

// formInsts expands op into its forms: immediate or register second
// operand, SCC off or on, r0 or a live destination. The long-format
// blockable ops (LDHI) have no second operand to vary.
func formInsts(op isa.Op) []isa.Inst {
	var out []isa.Inst
	for _, rd := range []uint8{0, formRd} {
		for _, scc := range []bool{false, true} {
			if op.Long() {
				out = append(out, isa.Inst{Op: op, SCC: scc, Rd: rd, Imm19: -0x2A5A5})
				continue
			}
			for _, imm := range []bool{true, false} {
				out = append(out, isa.Inst{Op: op, SCC: scc, Rd: rd, Rs1: formRs1, Imm: imm, Rs2: formRs2})
			}
		}
	}
	return out
}

// formProgram assembles a program of instructions and assembler lines.
func formProgram(t *testing.T, parts ...any) *asm.Image {
	t.Helper()
	var code []byte
	for _, p := range parts {
		var w uint32
		switch p := p.(type) {
		case isa.Inst:
			w = p.Encode()
		case string:
			img, err := asm.Assemble("\t" + p + "\n")
			if err != nil {
				t.Fatalf("assemble %q: %v", p, err)
			}
			w = uint32(img.Bytes[0])<<24 | uint32(img.Bytes[1])<<16 | uint32(img.Bytes[2])<<8 | uint32(img.Bytes[3])
		}
		code = append(code, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return &asm.Image{Org: 0, Entry: 0, Bytes: code}
}

// formContexts places in where each compiled form can run.
func formContexts(t *testing.T, in isa.Inst) map[string]*asm.Image {
	return map[string]*asm.Image{
		// A body op, before a RET terminator through the control path.
		"body": formProgram(t, in, "ret r25,#8", "nop"),
		// The slot of a JMPR: the fast terminator's slot.
		"jmpr slot": formProgram(t, "b 8", in, "ret r25,#8", "nop"),
		// The slot of a CALLR: the generic control path's slot, run in
		// the callee's window.
		"callr slot": formProgram(t, "callr r25,#16", in, "ret r25,#8", "nop", "ret r25,#8", "nop"),
		// A body op and a slot of a loop whose block runs eight times;
		// the loop's own compare fuses with its branch.
		"hot loop": formProgram(t, in, fmt.Sprintf("sub! r%d,#1,r%d", formLoop, formLoop),
			"bne -8", in, "ret r25,#8", "nop"),
	}
}

// fusedProgram is a flag-setting SUB before a JMPR on cond, whose two
// directions halt from different slots.
func fusedProgram(t *testing.T, in isa.Inst, cond isa.Cond) *asm.Image {
	return formProgram(t, in, isa.Inst{Op: isa.OpJMPR, Rd: uint8(cond), Imm19: 16},
		"nop", "ret r25,#8", "nop", "ret r25,#8", "nop")
}

// formState is one starting machine state.
type formState struct {
	rs1, s2 uint32 // s2 is the register operand's value (unused for immediates)
	flags   isa.Flags
}

// runForm loads img with the given starting state and runs it under e.
func runForm(t *testing.T, e Engine, img *asm.Image, st formState) (*CPU, error) {
	t.Helper()
	c := New(Config{MemSize: formMemSize, MaxCycles: 20000, Engine: e})
	if err := c.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := c.Mem.LoadProgram(formData, formPattern); err != nil {
		t.Fatalf("seed data: %v", err)
	}
	c.Regs.Set(formRs1, st.rs1)
	c.Regs.Set(formRs2, st.s2)
	c.Regs.Set(formRd, 0x1234ABCD) // distinct bytes, so a store of the wrong one shows
	c.Regs.Set(formLoop, 8)
	c.flags = st.flags
	return c, c.Run()
}

// compareForm runs img from st under step and the block engine and
// requires the two to agree, memory included. It returns the block run's
// CPU, whose RAM it has released.
func compareForm(t *testing.T, label string, img *asm.Image, st formState) *CPU {
	t.Helper()
	cs, errS := runForm(t, EngineStep, img, st)
	cb, errB := runForm(t, EngineAuto, img, st)
	compareEngines(t, label, cs, cb, errS, errB)
	if !cb.Mem.SameRAM(cs.Mem) {
		t.Fatalf("%s: memory differs from step", label)
	}
	cs.Mem.Release()
	cb.Mem.Release()
	return cb
}

// TestCompiledFormsMatchStep sweeps every compiled form of every
// blockable instruction against the step oracle (see the top of this
// file).
func TestCompiledFormsMatchStep(t *testing.T) {
	flagSets := []isa.Flags{{}, {C: true, V: true, N: true, Z: true}, {C: true}, {N: true, V: false, Z: true}}
	runs := 0
	for _, op := range blockableOps() {
		// The sweep must reach what it pins: each op's loop block runs
		// more than once at least once, and every fused program fuses.
		looped := 0
		for _, in := range formInsts(op) {
			name := in.String()
			if in.SCC && op.Cat() == isa.CatStore {
				name += " (scc)"
			}
			s2s := formRegS2
			if in.Imm || op.Long() {
				s2s = []uint32{0x3C3C3C3C}
			}
			imms := []int32{in.Imm13}
			if in.Imm {
				imms = formImm
			}
			for _, imm := range imms {
				form := in
				form.Imm13 = imm
				ctxs := formContexts(t, form)
				var fused []*asm.Image
				if op == isa.OpSUB && in.SCC {
					for cond := isa.Cond(0); cond < 16; cond++ {
						fused = append(fused, fusedProgram(t, form, cond))
					}
				}
				for vi, rs1 := range formValues {
					for si, s2 := range s2s {
						st := formState{rs1: rs1, s2: s2, flags: flagSets[(vi+si)%len(flagSets)]}
						for cname, img := range ctxs {
							cb := compareForm(t, fmt.Sprintf("%s [%s] rs1=%#x s2=%#x imm=%d %+v", name, cname, rs1, s2, imm, st.flags), img, st)
							if cname == "hot loop" && cb.heat[0] > 1 {
								looped++
							}
							runs++
						}
						for cond, img := range fused {
							label := fmt.Sprintf("%s [fused %v] rs1=%#x s2=%#x imm=%d %+v", name, isa.Cond(cond), rs1, s2, imm, st.flags)
							cb := compareForm(t, label, img, st)
							if b := cb.blocks[0]; b == nil || len(b.ops) != 0 || b.termFast == nil {
								t.Fatalf("%s: the compare did not fuse with its branch", label)
							}
							runs++
						}
					}
				}
			}
		}
		if looped == 0 {
			t.Errorf("%v: no hot loop ran its block more than once", op)
		}
	}
	if runs == 0 {
		t.Fatal("no forms ran")
	}
}

// FuzzCompiledForms runs one random blockable instruction from a random
// register file and flags, as a block body op and as a JMPR's delay slot,
// under the block engine and under Step, and requires the two to agree on
// everything compareEngines and memory show. The word's opcode field picks
// a blockable opcode; every other field is the fuzzer's.
func FuzzCompiledForms(f *testing.F) {
	regs := make([]byte, 4*31)
	for i := range regs {
		regs[i] = byte(i*37 + 11)
	}
	f.Add(isa.Inst{Op: isa.OpSRA, SCC: true, Rd: formRd, Rs1: formRs1, Rs2: formRs2}.Encode(), regs, uint8(0))
	f.Add(isa.Inst{Op: isa.OpSUBCR, Rd: formRd, Rs1: formRs1, Imm: true, Imm13: -1}.Encode(), regs, uint8(1))
	data := []byte{0, 0, formData >> 8, 0} // r1 = formData
	f.Add(isa.Inst{Op: isa.OpLDSS, SCC: true, Rd: formRd, Rs1: formRs1, Imm: true, Imm13: 8}.Encode(), data, uint8(15))
	f.Add(isa.Inst{Op: isa.OpSTB, Rd: 0, Rs1: formRs1, Imm: true, Imm13: 3}.Encode(), data, uint8(4))
	ops := blockableOps()
	f.Fuzz(func(t *testing.T, word uint32, regs []byte, flags uint8) {
		op := ops[int(word>>25)%len(ops)]
		in, err := isa.Decode(word&(1<<25-1) | uint32(op)<<25)
		if err != nil {
			t.Fatalf("decode %#08x: %v", word, err)
		}
		var vals [32]uint32
		for i, b := range regs[:min(len(regs), 4*31)] {
			vals[1+i/4] |= uint32(b) << (24 - 8*(i%4))
		}
		fl := isa.Flags{C: flags&1 != 0, V: flags&2 != 0, N: flags&4 != 0, Z: flags&8 != 0}
		run := func(e Engine, img *asm.Image) (*CPU, error) {
			c := New(Config{MemSize: formMemSize, MaxCycles: 1000, Engine: e})
			if err := c.Load(img); err != nil {
				t.Fatalf("load: %v", err)
			}
			if err := c.Mem.LoadProgram(formData, formPattern); err != nil {
				t.Fatalf("seed data: %v", err)
			}
			for r := uint8(1); r < 32; r++ {
				if r != LinkReg { // keeps the closing RET's halt linkage
					c.Regs.Set(r, vals[r])
				}
			}
			c.flags = fl
			return c, c.Run()
		}
		for _, img := range []*asm.Image{
			formProgram(t, in, "ret r25,#8", "nop"),
			formProgram(t, "b 8", in, "ret r25,#8", "nop"),
		} {
			cs, errS := run(EngineStep, img)
			cb, errB := run(EngineAuto, img)
			compareEngines(t, in.String()+" under block", cs, cb, errS, errB)
			if !cb.Mem.SameRAM(cs.Mem) {
				t.Fatalf("%v under block: memory differs from step", in)
			}
		}
	})
}
