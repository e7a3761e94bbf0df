// Package regwin implements the overlapping register windows that are the
// architectural heart of RISC I.
//
// A procedure sees 32 registers: r0–r9 are global (r0 reads as zero), and
// r10–r31 are a window into a large physical file. On CALL the window slides
// down by 16 registers so that the caller's outgoing-parameter registers
// (LOW, r10–r15) become the callee's incoming-parameter registers (HIGH,
// r26–r31) with no data movement. With N hardware windows the file holds
// 10 + 16·N physical registers — the paper's configuration is N = 8, giving
// the famous 138 — and N−1 procedure activations can be resident at once.
// Deeper call chains spill the oldest window to memory (overflow trap) and
// reload it on the way back up (underflow trap); packages core and exp count
// those events for the window-sizing experiment.
package regwin

import (
	"fmt"

	"risc1/internal/isa"
)

// DefaultWindows is the paper's hardware configuration: 8 windows,
// 138 physical registers.
const DefaultWindows = 8

// WindowSave is the register image moved by one spill or fill: the LOCAL
// registers (r16–r25) and HIGH registers (r26–r31) of one window — 16 words.
// A window's LOW registers are its callee's HIGH and travel with the
// callee's save image; this is exactly the discipline later adopted by
// SPARC, RISC I's direct descendant. Saving LOW+LOCAL instead would let an
// overflowing call overwrite the oldest window's incoming parameters before
// they reach memory.
type WindowSave [isa.WindowRegs]uint32

// SaveBytes is the memory cost of one spill or fill in bytes.
const SaveBytes = isa.WindowRegs * 4

// File is a windowed register file. The zero value is not usable; call New.
//
// Window positions are tracked as unbounded logical indices (0 at reset,
// +1 per call, −1 per return); the physical slot of logical window w is
// w mod N. The invariant maintained between spilled and cwp is
// cwp − spilled ≤ N−2: trying to push past that must first SpillOldest, and
// popping below spilled must first FillNewest.
//
// Like the hardware's register decoder, Get and Set resolve a visible
// register with no compare chain and no modulo: regClass names the
// register's class, and the class's entry in rbase (reads) or wbase
// (writes) is the offset that turns the register number into its physical
// index. Only the LOW/LOCAL and HIGH entries depend on the window, so a
// call or return rewrites two entries of each table, and the tables are the
// same size whatever N.
type File struct {
	n       int
	phys    []uint32 // 10 + 16·N registers, then the r0 write sink
	cwp     int      // logical index of the current window
	spilled int      // logical index of the oldest resident window

	rbase, wbase [numClasses]int
}

// Register classes, as regClass assigns them.
const (
	classZero   = iota // r0: reads phys[0], which nothing writes; writes go to the sink
	classGlobal        // r1–r9: phys[r] in every window
	classLow           // r10–r25: LOW and LOCAL, in the current window's slot
	classHigh          // r26–r31: HIGH, the caller's LOW
	numClasses
)

// regClass is the class of each visible register.
var regClass = func() (c [32]uint8) {
	for r := range c {
		switch {
		case r == 0:
			c[r] = classZero
		case r < isa.NumGlobalRegs:
			c[r] = classGlobal
		case r < isa.FirstHigh:
			c[r] = classLow
		default:
			c[r] = classHigh
		}
	}
	return c
}()

// New returns a register file with the given number of hardware windows.
// The minimum is 3: the current window, one window of overlap slack, and one
// window that can be spilled while the other two stay addressable.
func New(windows int) *File {
	if windows < 3 {
		panic(fmt.Sprintf("regwin: need at least 3 windows, got %d", windows))
	}
	total := isa.NumGlobalRegs + isa.WindowRegs*windows
	f := &File{
		n:    windows,
		phys: make([]uint32, total+1),
	}
	f.wbase[classZero] = total // the sink: r0 + total
	f.setWindow()
	return f
}

// setWindow points the LOW/LOCAL entries at cwp's slot and the HIGH
// entries at the slot below it, which holds the caller's LOW.
func (f *File) setWindow() {
	f.rbase[classLow] = f.physBase(f.cwp) - isa.FirstLow
	f.rbase[classHigh] = f.physBase(f.cwp-1) - isa.FirstHigh
	f.wbase[classLow] = f.rbase[classLow]
	f.wbase[classHigh] = f.rbase[classHigh]
}

// Windows returns the number of hardware windows N.
func (f *File) Windows() int { return f.n }

// TotalPhys returns the number of physical registers (10 + 16·N).
func (f *File) TotalPhys() int { return len(f.phys) - 1 }

// CWP returns the logical index of the current window.
func (f *File) CWP() int { return f.cwp }

// Resident returns how many windows are currently held in hardware.
func (f *File) Resident() int { return f.cwp - f.spilled + 1 }

// Spilled returns the logical index of the oldest resident window.
func (f *File) Spilled() int { return f.spilled }

func floorMod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// physBase returns the physical index of logical window w's r10 slot.
func (f *File) physBase(w int) int {
	return isa.NumGlobalRegs + isa.WindowRegs*floorMod(w, f.n)
}

// PhysIndex maps (logical window, visible register) to a physical register
// index. Exposed for tests and visualization; r must be 1..31 (r0 has no
// physical home).
func (f *File) PhysIndex(window int, r uint8) int {
	switch {
	case r == 0 || r > 31:
		panic(fmt.Sprintf("regwin: r%d has no physical index", r))
	case r < isa.NumGlobalRegs:
		return int(r)
	case r < isa.FirstHigh: // LOW and LOCAL
		return f.physBase(window) + int(r) - isa.FirstLow
	default: // HIGH: shared with the caller's LOW
		return f.physBase(window-1) + int(r) - isa.FirstHigh
	}
}

// Get reads visible register r (taken mod 32, like the 5-bit field it comes
// from) in the current window. r0 reads as zero. This is the simulator's
// single hottest function, so it is one table lookup and one add.
func (f *File) Get(r uint8) uint32 {
	r &= 31
	// The mask changes no class; it lets the compiler drop the bounds check.
	return f.phys[f.rbase[regClass[r]&(numClasses-1)]+int(r)]
}

// Set writes visible register r (taken mod 32) in the current window.
// Writes to r0 are discarded, as on the hardware.
func (f *File) Set(r uint8, v uint32) {
	r &= 31
	f.phys[f.wbase[regClass[r]&(numClasses-1)]+int(r)] = v
}

// GetIn reads register r as seen from an explicit logical window. Used by
// trap handlers and debuggers to inspect callers.
func (f *File) GetIn(window int, r uint8) uint32 {
	if r == 0 {
		return 0
	}
	return f.phys[f.PhysIndex(window, r)]
}

// NeedSpill reports whether a call (PushWindow) would exceed hardware
// capacity and therefore must SpillOldest first.
func (f *File) NeedSpill() bool { return f.cwp+1-f.spilled > f.n-2 }

// PushWindow slides into a new window (procedure call). The caller must
// resolve NeedSpill first; pushing into occupied hardware panics because it
// would silently corrupt a resident window.
func (f *File) PushWindow() {
	if f.NeedSpill() {
		panic("regwin: window overflow not handled before PushWindow")
	}
	f.cwp++
	f.setWindow()
}

// NeedFill reports whether a return (PopWindow) would land in a window that
// has been spilled to memory and therefore must FillNewest first.
func (f *File) NeedFill() bool { return f.cwp-1 < f.spilled }

// PopWindow slides back to the caller's window (procedure return).
func (f *File) PopWindow() {
	if f.NeedFill() {
		panic("regwin: window underflow not handled before PopWindow")
	}
	f.cwp--
	f.setWindow()
}

// numLocal is the count of LOCAL registers (r16–r25) in a save image.
const numLocal = isa.FirstHigh - isa.FirstLocal

// SpillOldest removes the oldest resident window from hardware and returns
// its 16-register image (LOCALs then HIGHs) for the trap handler to write to
// the register-save stack.
func (f *File) SpillOldest() WindowSave {
	if f.spilled >= f.cwp {
		panic("regwin: nothing to spill")
	}
	var save WindowSave
	w := f.spilled
	localBase := f.physBase(w) + (isa.FirstLocal - isa.FirstLow)
	copy(save[:numLocal], f.phys[localBase:localBase+numLocal])
	highBase := f.physBase(w - 1)
	copy(save[numLocal:], f.phys[highBase:highBase+isa.OverlapRegs])
	f.spilled++
	return save
}

// FillNewest restores the most recently spilled window image into hardware;
// the inverse of SpillOldest.
func (f *File) FillNewest(save WindowSave) {
	if f.spilled == 0 {
		panic("regwin: nothing to fill")
	}
	if f.cwp-f.spilled+2 > f.n-1 {
		panic("regwin: no hardware room to fill into")
	}
	f.spilled--
	w := f.spilled
	localBase := f.physBase(w) + (isa.FirstLocal - isa.FirstLow)
	copy(f.phys[localBase:localBase+numLocal], save[:numLocal])
	highBase := f.physBase(w - 1)
	copy(f.phys[highBase:highBase+isa.OverlapRegs], save[numLocal:])
}

// Reset returns the file to power-on state: window 0 current, all registers
// zero.
func (f *File) Reset() {
	clear(f.phys)
	f.cwp, f.spilled = 0, 0
	f.setWindow()
}
