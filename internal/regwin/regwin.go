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
// The 32 registers the current window sees live in vis, so Get and Set are
// one array access: the globals, the LOW/LOCAL rows of slot(cwp), and the
// LOW rows of slot(cwp−1), which show as HIGH. phys holds every other row;
// its copies of the rows in vis are stale. A call or return moves only the
// rows that change, so the file pays on calls instead of on every operand.
type File struct {
	vis     [32]uint32
	n       int
	phys    []uint32 // 10 + 16·N registers
	cwp     int      // logical index of the current window
	spilled int      // logical index of the oldest resident window
	base    int      // physBase(cwp)
}

// New returns a register file with the given number of hardware windows.
// The minimum is 3: the current window, one window of overlap slack, and one
// window that can be spilled while the other two stay addressable.
func New(windows int) *File {
	if windows < 3 {
		panic(fmt.Sprintf("regwin: need at least 3 windows, got %d", windows))
	}
	return &File{
		n:    windows,
		phys: make([]uint32, isa.NumGlobalRegs+isa.WindowRegs*windows),
		base: isa.NumGlobalRegs,
	}
}

// Windows returns the number of hardware windows N.
func (f *File) Windows() int { return f.n }

// TotalPhys returns the number of physical registers (10 + 16·N).
func (f *File) TotalPhys() int { return len(f.phys) }

// CWP returns the logical index of the current window.
func (f *File) CWP() int { return f.cwp }

// Resident returns how many windows are currently held in hardware.
func (f *File) Resident() int { return f.cwp - f.spilled + 1 }

// Spilled returns the logical index of the oldest resident window.
func (f *File) Spilled() int { return f.spilled }

// physBase returns the physical index of logical window w's r10 slot.
func (f *File) physBase(w int) int {
	if w %= f.n; w < 0 {
		w += f.n
	}
	return isa.NumGlobalRegs + isa.WindowRegs*w
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
// single hottest function, so it is one array load.
func (f *File) Get(r uint8) uint32 { return f.vis[r&31] }

// Set writes visible register r (taken mod 32) in the current window.
// Writes to r0 are discarded, as on the hardware: vis[0] is zeroed again.
func (f *File) Set(r uint8, v uint32) {
	f.vis[r&31] = v
	f.vis[0] = 0
}

// GetIn reads register r as seen from an explicit logical window. Used by
// trap handlers and debuggers to inspect callers. It reads a row held in
// vis from there and changes nothing, so a test that inspects the file
// through it cannot hide a row that a call or return failed to write back.
func (f *File) GetIn(window int, r uint8) uint32 {
	if r < isa.NumGlobalRegs {
		return f.vis[r]
	}
	p, high := f.PhysIndex(window, r), f.below(f.base)
	switch {
	case p >= f.base && p < f.base+isa.WindowRegs:
		return f.vis[isa.FirstLow+p-f.base]
	case p >= high && p < high+isa.OverlapRegs:
		return f.vis[isa.FirstHigh+p-high]
	}
	return f.phys[p]
}

// Row views: a window's LOW/LOCAL rows, its LOCAL rows, and the six LOW
// rows that its callee sees as HIGH.
type (
	windowRows [isa.WindowRegs]uint32
	localRows  [numLocal]uint32
	lowRows    [isa.OverlapRegs]uint32
)

// below returns the physical base of the slot under the one at base,
// wrapping from the first slot to the last.
func (f *File) below(base int) int {
	if base == isa.NumGlobalRegs {
		return len(f.phys) - isa.WindowRegs
	}
	return base - isa.WindowRegs
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
	// LOCAL and HIGH go out, LOW becomes the callee's HIGH, and the
	// callee's LOW/LOCAL come in. Rows move between phys and vis through
	// locals: the compiler cannot tell that the two never overlap, and would
	// call memmove for a direct copy.
	local, high := localRows(f.vis[isa.FirstLocal:]), lowRows(f.vis[isa.FirstHigh:])
	*(*localRows)(f.phys[f.base+isa.OverlapRegs:]) = local
	*(*lowRows)(f.phys[f.below(f.base):]) = high
	*(*lowRows)(f.vis[isa.FirstHigh:]) = lowRows(f.vis[isa.FirstLow:])
	f.cwp++
	if f.base += isa.WindowRegs; f.base == len(f.phys) {
		f.base = isa.NumGlobalRegs
	}
	win := windowRows(f.phys[f.base:])
	*(*windowRows)(f.vis[isa.FirstLow:]) = win
}

// NeedFill reports whether a return (PopWindow) would land in a window that
// has been spilled to memory and therefore must FillNewest first.
func (f *File) NeedFill() bool { return f.cwp-1 < f.spilled }

// PopWindow slides back to the caller's window (procedure return).
func (f *File) PopWindow() {
	if f.NeedFill() {
		panic("regwin: window underflow not handled before PopWindow")
	}
	// The mirror of PushWindow: LOW/LOCAL go out, HIGH becomes the
	// caller's LOW, and the caller's LOCAL and HIGH come in.
	win := windowRows(f.vis[isa.FirstLow:])
	*(*windowRows)(f.phys[f.base:]) = win
	*(*lowRows)(f.vis[isa.FirstLow:]) = lowRows(f.vis[isa.FirstHigh:])
	f.cwp--
	f.base = f.below(f.base)
	local, high := localRows(f.phys[f.base+isa.OverlapRegs:]), lowRows(f.phys[f.below(f.base):])
	*(*localRows)(f.vis[isa.FirstLocal:]) = local
	*(*lowRows)(f.vis[isa.FirstHigh:]) = high
}

// numLocal is the count of LOCAL registers (r16–r25) in a save image.
const numLocal = isa.FirstHigh - isa.FirstLocal

// SpillOldest removes the oldest resident window from hardware and returns
// its 16-register image (LOCALs then HIGHs) for the trap handler to write to
// the register-save stack.
//
// Neither SpillOldest nor FillNewest touches a row held in vis. The window
// w they move has 1 ≤ cwp − w ≤ N−2, and windows less than N apart occupy
// distinct slots. So its LOCAL rows, in slot(w), are not slot(cwp)'s, and
// its HIGH rows, the LOW rows of slot(w−1), are neither slot(cwp)'s nor
// slot(cwp−1)'s. FuzzRegwin holds it.
func (f *File) SpillOldest() WindowSave {
	if f.spilled >= f.cwp {
		panic("regwin: nothing to spill")
	}
	var save WindowSave
	*(*localRows)(save[:]) = localRows(f.phys[f.physBase(f.spilled)+isa.OverlapRegs:])
	*(*lowRows)(save[numLocal:]) = lowRows(f.phys[f.physBase(f.spilled-1):])
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
	*(*localRows)(f.phys[f.physBase(f.spilled)+isa.OverlapRegs:]) = localRows(save[:])
	*(*lowRows)(f.phys[f.physBase(f.spilled-1):]) = lowRows(save[numLocal:])
}

// Reset returns the file to power-on state: window 0 current, all registers
// zero.
func (f *File) Reset() {
	clear(f.phys)
	f.vis = [32]uint32{}
	f.cwp, f.spilled, f.base = 0, 0, isa.NumGlobalRegs
}
