package cc

import (
	"fmt"
	"strconv"
	"strings"
)

// GenerateRISC compiles a checked program to RISC I assembly (package asm
// syntax). windowed selects the register-window calling convention; false
// selects the flat-register ablation, whose compiler must save and restore
// registers around calls like any conventional machine.
//
// The emitted code leaves a NOP in every delayed-transfer slot;
// OptimizeDelaySlots rewrites the text to fill the slots it can.
func GenerateRISC(prog *Program, windowed bool) (string, error) {
	text, _, err := generateRISC(prog, windowed, true)
	return text, err
}

// generateRISC is GenerateRISC with the addressing mode explicit. With
// useGP, farData reports that the text addresses a data symbol through the
// global pointer although the symbol cannot lie within its reach, so the
// text cannot assemble and only its wide twin can (see gpFloors).
func generateRISC(prog *Program, windowed, useGP bool) (text string, farData bool, err error) {
	g := &riscGen{prog: prog, windowed: windowed, useGP: useGP}
	if useGP {
		g.floors = gpFloors(prog)
	}
	text, err = g.generate()
	return text, g.farData, err
}

// GPReg is the global-pointer register: anchored at address 4096 by the
// startup stub so any symbol in the first 8 KiB is one signed-13-bit
// displacement away — the classic small-data trick, matching the CISC's
// absolute addressing with a single instruction instead of an ldhi pair.
const GPReg = 8

// gpAnchor is the value the startup stub loads into GPReg.
const gpAnchor = 4096

// gpLimit is the first address a signed 13-bit displacement off gpAnchor
// cannot reach.
const gpLimit = gpAnchor + 1<<12

// gpFloors maps each data label to a lower bound on its address. The data
// section follows the code (the image starts at 0), each global then each
// string literal in order, every one padded to 4 bytes; an initializer never
// emits fewer bytes than its type's size, so the sum of the padded sizes
// declared before a symbol bounds its address from below.
//
// It returns nil, so that nothing is judged out of reach, in two cases
// where the narrow text's failure would not be a plain range error: a
// function named __start clashes with the startup stub's label, and data
// past 2 GiB could wrap the assembler's 32-bit addresses.
func gpFloors(prog *Program) map[string]int {
	for _, fn := range prog.Funcs {
		if fn.Name == "__start" {
			return nil
		}
	}
	floors := make(map[string]int, len(prog.Globals)+len(prog.Strings))
	addr := 0
	for _, v := range prog.Globals {
		floors[globalLabel(v)] = addr
		addr += (v.Type.Size() + 3) &^ 3
	}
	for i, s := range prog.Strings {
		floors[strLabel(i)] = addr
		addr += (len(s) + 1 + 3) &^ 3
	}
	if addr >= 1<<31 {
		return nil
	}
	return floors
}

// Calling-convention register assignments.
type riscConv struct {
	argIn    uint8 // first incoming-parameter register
	argOut   uint8 // first outgoing-argument register
	retIn    uint8 // where the caller finds the return value
	retOut   uint8 // where the callee leaves the return value
	link     uint8
	sp       uint8
	localLo  uint8 // local-variable register range
	localHi  uint8
	scratch  []uint8 // expression temporaries (clobbered by calls)
	saveUsed bool    // callee must save/restore its local registers
}

func conventionFor(windowed bool) riscConv {
	if windowed {
		// Outgoing arguments in LOW (r10..r15) become the callee's HIGH
		// (r26..r31); the return value travels back through the same
		// overlap. The link register is a LOCAL so every activation
		// keeps its own. No register is ever saved by software unless
		// the hardware runs out of windows.
		return riscConv{
			argIn: 26, argOut: 10, retIn: 10, retOut: 26,
			link: 25, sp: 9, localLo: 16, localHi: 24,
			scratch: []uint8{10, 11, 12, 13, 14, 15},
		}
	}
	// Flat: a conventional RISC convention. r1..r6 carry arguments and
	// are caller-saved; r16..r24 are callee-saved locals; r25 holds the
	// return address and must be saved by non-leaf procedures.
	return riscConv{
		argIn: 1, argOut: 1, retIn: 1, retOut: 1,
		link: 25, sp: 9, localLo: 16, localHi: 24,
		scratch:  []uint8{10, 11, 12, 13, 14, 15},
		saveUsed: true,
	}
}

// rtemp is one entry of the expression-temporary stack.
type rtemp struct {
	reg  int16 // register, or -1 when spilled
	slot int   // frame spill slot when spilled
}

type riscGen struct {
	prog     *Program
	windowed bool
	useGP    bool
	// floors bounds each data symbol's address from below (gpFloors);
	// farData records a gp-relative reference to a symbol at or past
	// gpLimit.
	floors  map[string]int
	farData bool
	conv    riscConv
	out     strings.Builder

	// per-function state
	fn        *FuncDecl
	body      []byte // the function's instructions, one a line
	localReg  map[*VarDecl]uint8
	localOff  map[*VarDecl]int
	memBytes  int // frame bytes used by memory locals
	temps     []rtemp
	freeRegs  []uint8
	pinned    map[uint8]bool
	bases     []tref // subscript bases pinned while their indexes evaluate
	freeSlots []int
	spillMax  int // total spill slots ever allocated
	labelN    int
	breakL    []string
	contL     []string
	savedRegs []uint8

	usesMul, usesDiv, usesMod bool

	usesSpawn, usesJoin, usesLock, usesUnlock bool

	// curLine is the Cm source line the statement generator is currently
	// lowering; emit stamps it on each instruction as a ";@line N" marker
	// that the assembler folds into the image's line table. Zero (runtime
	// helpers, prologue glue) leaves attribution on the assembly text.
	curLine int
}

type tref int

func (g *riscGen) emit(format string, args ...any) {
	g.body = append(g.body, '\t')
	g.body = appendf(g.body, format, args...)
	if g.curLine > 0 {
		g.body = append(g.body, " ;@line "...)
		g.body = strconv.AppendInt(g.body, int64(g.curLine), 10)
	}
	g.body = append(g.body, '\n')
}

// outf writes one formatted line of function glue straight to the output.
func (g *riscGen) outf(format string, args ...any) {
	var buf [64]byte
	g.out.Write(appendf(buf[:0], format, args...))
}

// noteGP records a gp-relative reference to the data symbol sym.
func (g *riscGen) noteGP(sym string) {
	if g.floors[sym] >= gpLimit {
		g.farData = true
	}
}

func (g *riscGen) label(l string) {
	g.body = append(g.body, l...)
	g.body = append(g.body, ":\n"...)
}

func (g *riscGen) newLabel(hint string) string {
	g.labelN++
	var buf [64]byte
	return string(appendf(buf[:0], ".L%s_%s%d", g.fn.Name, hint, g.labelN))
}

func (g *riscGen) generate() (_ string, err error) {
	defer recoverOutOfRegisters(&err)
	g.conv = conventionFor(g.windowed)
	fmt.Fprintf(&g.out, "; Cm compiler output, target: RISC I (%s)\n",
		map[bool]string{true: "register windows", false: "flat registers"}[g.windowed])
	if g.useGP {
		// Startup stub: anchor the global pointer, then fall into main
		// with a plain branch so the halt linkage set at reset survives.
		g.out.WriteString("\t.entry __start\n__start:\n")
		fmt.Fprintf(&g.out, "\tli #%d,r%d\n", gpAnchor, GPReg)
		g.out.WriteString("\tb main\n\tnop\n")
	} else {
		g.out.WriteString("\t.entry main\n")
	}
	for _, fn := range g.prog.Funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}
	rt := &runtimes[0]
	if g.windowed {
		rt = &runtimes[1]
	}
	if g.usesMul {
		g.out.WriteString(rt.mul)
	}
	if g.usesDiv {
		g.out.WriteString(rt.div)
	}
	if g.usesMod {
		g.out.WriteString(rt.mod)
	}
	if g.usesSpawn {
		g.out.WriteString(rt.spawn)
	}
	if g.usesJoin {
		g.out.WriteString(rt.join)
	}
	if g.usesLock {
		g.out.WriteString(rt.lock)
	}
	if g.usesUnlock {
		g.out.WriteString(rt.unlock)
	}
	g.genData()
	return g.out.String(), nil
}

// outOfRegisters is the panic a generator raises deep inside an expression
// when every temporary register is pinned by an enclosing one; generate
// turns it into the CompileError it returns.
type outOfRegisters struct{ line int }

// recoverOutOfRegisters sets *err to the diagnostic for an outOfRegisters
// panic, and lets every other panic through.
func recoverOutOfRegisters(err *error) {
	if r := recover(); r != nil {
		oor, ok := r.(outOfRegisters)
		if !ok {
			panic(r)
		}
		*err = &CompileError{Line: oor.line, Msg: "expression too complex: out of temporary registers"}
	}
}

// errorAt builds a backend diagnostic.
func errorAt(line int, format string, args ...any) error {
	return &CompileError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ---------- function framework ----------

func (g *riscGen) genFunc(fn *FuncDecl) error {
	g.fn = fn
	g.body = g.body[:0]
	g.curLine = fn.Line
	g.localReg = map[*VarDecl]uint8{}
	g.localOff = map[*VarDecl]int{}
	g.memBytes = 0
	g.temps = nil
	g.pinned = map[uint8]bool{}
	g.bases = g.bases[:0]
	g.freeSlots, g.spillMax = nil, 0
	g.labelN = 0
	g.breakL, g.contL = nil, nil
	g.savedRegs = nil

	// Assign storage: parameters first, then locals.
	nextLocal := g.conv.localLo
	if !g.windowed {
		nextLocal = g.conv.localLo // parameters also consume local registers
	}
	usedLocal := map[uint8]bool{}
	takeLocalReg := func() (uint8, bool) {
		for r := nextLocal; r <= g.conv.localHi; r++ {
			if !usedLocal[r] && r != g.conv.link {
				usedLocal[r] = true
				return r, true
			}
		}
		return 0, false
	}
	frameAlloc := func(size int) int {
		off := g.memBytes
		g.memBytes += (size + 3) &^ 3
		return off
	}

	for i, p := range fn.Params {
		if p.AddrTaken {
			g.localOff[p] = frameAlloc(4)
			continue
		}
		if g.windowed {
			// Parameters live where they arrive: the HIGH registers.
			g.localReg[p] = g.conv.argIn + uint8(i)
			continue
		}
		r, ok := takeLocalReg()
		if !ok {
			g.localOff[p] = frameAlloc(4)
			continue
		}
		g.localReg[p] = r
	}
	for _, v := range fn.Locals {
		if v.AddrTaken || !v.Type.IsScalar() {
			g.localOff[v] = frameAlloc(v.Type.Size())
			continue
		}
		if r, ok := takeLocalReg(); ok {
			g.localReg[v] = r
		} else {
			g.localOff[v] = frameAlloc(4)
		}
	}

	// Scratch pool: the convention's scratch registers plus any local
	// registers this function left unused (windowed only — in flat mode
	// unused locals would have to be saved to be usable).
	g.freeRegs = append([]uint8(nil), g.conv.scratch...)
	if g.windowed {
		for r := g.conv.localLo; r <= g.conv.localHi; r++ {
			if !usedLocal[r] && r != g.conv.link {
				g.freeRegs = append(g.freeRegs, r)
			}
		}
	}

	// Generate the body.
	retLabel := ".Lret_" + fn.Name
	if err := g.genBlock(fn.Body); err != nil {
		return err
	}
	g.label(retLabel)

	// Assemble prologue / body / epilogue now that the frame is known.
	if !g.windowed {
		for _, v := range fn.Locals {
			if r, ok := g.localReg[v]; ok {
				g.savedRegs = append(g.savedRegs, r)
			}
		}
		for _, p := range fn.Params {
			if r, ok := g.localReg[p]; ok {
				g.savedRegs = append(g.savedRegs, r)
			}
		}
		if !fn.IsLeaf {
			g.savedRegs = append(g.savedRegs, g.conv.link)
		}
	}
	frame := g.memBytes + 4*g.spillMax + 4*len(g.savedRegs)
	sp := g.conv.sp

	// The function's text goes out in one piece: grow the output once for
	// it, rather than step by step as the lines arrive.
	g.out.Grow(len(g.body) + 64*(len(g.savedRegs)+len(fn.Params)+4))
	g.outf("\n; ---- %s ----\n%s:\n", fn.Name, fn.Name)
	if frame > 0 {
		g.outf("\tsub r%d,#%d,r%d\n", sp, frame, sp)
	}
	saveBase := g.memBytes + 4*g.spillMax
	for i, r := range g.savedRegs {
		g.outf("\tstl r%d,(r%d)#%d\n", r, sp, saveBase+4*i)
	}
	// Flat mode: move incoming arguments to their homes.
	if !g.windowed {
		for i, p := range fn.Params {
			in := g.conv.argIn + uint8(i)
			if r, ok := g.localReg[p]; ok {
				g.outf("\tmov r%d,r%d\n", in, r)
			} else if off, ok := g.localOff[p]; ok {
				g.outf("\tstl r%d,(r%d)#%d\n", in, sp, off)
			}
		}
	} else {
		for i, p := range fn.Params {
			if off, ok := g.localOff[p]; ok { // address-taken parameter
				g.outf("\tstl r%d,(r%d)#%d\n", g.conv.argIn+uint8(i), sp, off)
			}
		}
	}
	g.out.Write(g.body)
	// Epilogue.
	for i, r := range g.savedRegs {
		g.outf("\tldl (r%d)#%d,r%d\n", sp, saveBase+4*i, r)
	}
	if frame > 0 {
		g.outf("\tadd r%d,#%d,r%d\n", sp, frame, sp)
	}
	g.outf("\tret r%d,#8\n\tnop\n", g.conv.link)
	return nil
}

// ---------- temporaries ----------

func (g *riscGen) takeReg() uint8 {
	if len(g.freeRegs) > 0 {
		r := g.freeRegs[0]
		g.freeRegs = g.freeRegs[1:]
		return r
	}
	// Spill the oldest unpinned in-register temporary.
	for i := range g.temps {
		if t := &g.temps[i]; t.reg >= 0 && !g.pinned[uint8(t.reg)] {
			return g.spill(t)
		}
	}
	// Every register is pinned. A subscript base is reloaded through its
	// temporary once the index is done, so spill the outermost one.
	for _, b := range g.bases {
		if t := &g.temps[b]; t.reg >= 0 {
			delete(g.pinned, uint8(t.reg))
			return g.spill(t)
		}
	}
	panic(outOfRegisters{g.curLine})
}

// spill stores the register-resident temporary t to a frame slot and
// returns the register it held.
func (g *riscGen) spill(t *rtemp) uint8 {
	r := uint8(t.reg)
	t.slot = g.allocSlot()
	g.emit("stl r%d,(r%d)#%d", r, g.conv.sp, g.slotOff(t.slot))
	t.reg = -1
	return r
}

func (g *riscGen) allocSlot() int {
	if n := len(g.freeSlots); n > 0 {
		s := g.freeSlots[n-1]
		g.freeSlots = g.freeSlots[:n-1]
		return s
	}
	g.spillMax++
	return g.spillMax - 1
}

func (g *riscGen) slotOff(slot int) int { return g.memBytes + 4*slot }

func (g *riscGen) pushTemp() tref {
	r := g.takeReg()
	g.temps = append(g.temps, rtemp{reg: int16(r)})
	return tref(len(g.temps) - 1)
}

// reg ensures the temp is register-resident and returns its register.
func (g *riscGen) reg(t tref) uint8 {
	tm := &g.temps[t]
	if tm.reg >= 0 {
		return uint8(tm.reg)
	}
	r := g.takeReg()
	g.emit("ldl (r%d)#%d,r%d", g.conv.sp, g.slotOff(tm.slot), r)
	g.freeSlots = append(g.freeSlots, tm.slot)
	tm.reg = int16(r)
	return r
}

// pop releases the top temporary, which must be t.
func (g *riscGen) pop(t tref) {
	if int(t) != len(g.temps)-1 {
		panic("cc: temp stack discipline violated")
	}
	tm := g.temps[t]
	if tm.reg >= 0 {
		g.freeRegs = append(g.freeRegs, uint8(tm.reg))
		delete(g.pinned, uint8(tm.reg))
	} else {
		g.freeSlots = append(g.freeSlots, tm.slot)
	}
	g.temps = g.temps[:t]
}

// spillAllTemps forces every live temporary to its frame slot (before a
// call clobbers the scratch registers).
func (g *riscGen) spillAllTemps() {
	for i := range g.temps {
		t := &g.temps[i]
		if t.reg >= 0 {
			t.slot = g.allocSlot()
			g.emit("stl r%d,(r%d)#%d", uint8(t.reg), g.conv.sp, g.slotOff(t.slot))
			g.freeRegs = append(g.freeRegs, uint8(t.reg))
			delete(g.pinned, uint8(t.reg))
			t.reg = -1
		}
	}
}

func (g *riscGen) pin(r uint8)   { g.pinned[r] = true }
func (g *riscGen) unpin(r uint8) { delete(g.pinned, r) }
