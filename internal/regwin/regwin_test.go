package regwin

import (
	"math/rand"
	"slices"
	"testing"

	"risc1/internal/isa"
)

func TestPaperConfiguration(t *testing.T) {
	f := New(DefaultWindows)
	if f.TotalPhys() != 138 {
		t.Fatalf("8 windows give %d physical registers, want the paper's 138", f.TotalPhys())
	}
	if f.Windows() != 8 {
		t.Fatalf("Windows() = %d", f.Windows())
	}
}

func TestMinimumWindows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(2) did not panic")
		}
	}()
	New(2)
}

func TestR0ReadsZero(t *testing.T) {
	f := New(4)
	f.Set(0, 123)
	if f.Get(0) != 0 {
		t.Error("r0 did not read as zero after write")
	}
	f.Set(5, 7)
	if f.Get(5) != 7 {
		t.Error("global write lost")
	}
}

func TestPhysIndexPanicsOnR0(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PhysIndex(_, 0) did not panic")
		}
	}()
	New(4).PhysIndex(0, 0)
}

// TestOverlap verifies the paper's central mechanism: the caller's LOW
// registers are physically the callee's HIGH registers.
func TestOverlap(t *testing.T) {
	f := New(8)
	for i := 0; i < 6; i++ {
		f.Set(uint8(isa.FirstLow+i), uint32(100+i)) // caller outgoing args
	}
	f.PushWindow()
	for i := 0; i < 6; i++ {
		r := uint8(isa.FirstHigh + i)
		if got := f.Get(r); got != uint32(100+i) {
			t.Errorf("callee r%d = %d, want %d (caller's r%d)", r, got, 100+i, isa.FirstLow+i)
		}
	}
	// Callee's reply travels back the same way.
	f.Set(isa.FirstHigh, 999)
	f.PopWindow()
	if got := f.Get(isa.FirstLow); got != 999 {
		t.Errorf("caller r10 after return = %d, want 999", got)
	}
}

func TestOverlapPhysIndices(t *testing.T) {
	f := New(8)
	for w := 0; w < 20; w++ {
		for i := 0; i < isa.OverlapRegs; i++ {
			callerLow := f.PhysIndex(w, uint8(isa.FirstLow+i))
			calleeHigh := f.PhysIndex(w+1, uint8(isa.FirstHigh+i))
			if callerLow != calleeHigh {
				t.Fatalf("window %d: phys(LOW+%d)=%d but callee phys(HIGH+%d)=%d",
					w, i, callerLow, i, calleeHigh)
			}
		}
		// LOCAL registers are private: no sharing with either neighbour.
		for i := 0; i < 10; i++ {
			p := f.PhysIndex(w, uint8(isa.FirstLocal+i))
			for j := 0; j < isa.OverlapRegs; j++ {
				if p == f.PhysIndex(w+1, uint8(isa.FirstHigh+j)) ||
					p == f.PhysIndex(w-1, uint8(isa.FirstLow+j)) {
					t.Fatalf("window %d LOCAL+%d shared with a neighbour", w, i)
				}
			}
		}
	}
}

func TestGlobalsSharedAcrossWindows(t *testing.T) {
	f := New(4)
	f.Set(3, 42)
	f.PushWindow()
	if f.Get(3) != 42 {
		t.Error("global not visible in callee window")
	}
	f.Set(3, 43)
	f.PopWindow()
	if f.Get(3) != 43 {
		t.Error("global write in callee not visible to caller")
	}
}

func TestSpillThreshold(t *testing.T) {
	const n = 5
	f := New(n)
	// N windows support N-1 resident activations: pushes 1..N-2 are free.
	for i := 0; i < n-2; i++ {
		if f.NeedSpill() {
			t.Fatalf("NeedSpill at depth %d of %d windows", i, n)
		}
		f.PushWindow()
	}
	if !f.NeedSpill() {
		t.Fatalf("no NeedSpill at depth %d of %d windows", n-2, n)
	}
	if f.Resident() != n-1 {
		t.Fatalf("Resident() = %d, want %d", f.Resident(), n-1)
	}
}

func TestPushWithoutSpillPanics(t *testing.T) {
	f := New(3)
	f.PushWindow()
	defer func() {
		if recover() == nil {
			t.Error("PushWindow past capacity did not panic")
		}
	}()
	f.PushWindow()
}

func TestPopWithoutFillPanics(t *testing.T) {
	f := New(3)
	defer func() {
		if recover() == nil {
			t.Error("PopWindow below window 0 did not panic")
		}
	}()
	f.PopWindow()
}

func TestSpillFillPanics(t *testing.T) {
	f := New(3)
	func() {
		defer func() { recover() }()
		f.SpillOldest()
		t.Error("SpillOldest with one resident window did not panic")
	}()
	func() {
		defer func() { recover() }()
		f.FillNewest(WindowSave{})
		t.Error("FillNewest with nothing spilled did not panic")
	}()
}

// driver wraps File with the software save-stack discipline the CPU's trap
// handler uses, so tests can run unbounded call depth.
type driver struct {
	f     *File
	stack []WindowSave
}

func (d *driver) call() {
	if d.f.NeedSpill() {
		d.stack = append(d.stack, d.f.SpillOldest())
	}
	d.f.PushWindow()
}

func (d *driver) ret() {
	if d.f.NeedFill() {
		d.f.FillNewest(d.stack[len(d.stack)-1])
		d.stack = d.stack[:len(d.stack)-1]
	}
	d.f.PopWindow()
}

// TestDeepRecursionPreservesFrames is the core correctness property: under a
// random call/return walk with random register writes, every window's
// private registers and the caller/callee shared registers behave exactly
// like an infinite stack of frames.
func TestDeepRecursionPreservesFrames(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 16} {
		r := rand.New(rand.NewSource(int64(n)))
		f := New(n)
		d := &driver{f: f}

		// frame models the visible r10..r31 of one activation. A register
		// only has a modelled value once written (or inherited through the
		// overlap): hardware does not clear fresh windows, so unwritten
		// locals legitimately read stale values.
		type frame struct {
			val     [22]uint32
			defined [22]bool
		}
		frames := []*frame{{}}
		globals := [10]uint32{}

		writeVisible := func(reg uint8, v uint32) {
			f.Set(reg, v)
			cur := frames[len(frames)-1]
			switch {
			case reg == 0:
			case reg < 10:
				globals[reg] = v
			default:
				cur.val[reg-10] = v
				cur.defined[reg-10] = true
				if reg >= uint8(isa.FirstHigh) && len(frames) > 1 {
					// HIGH aliases the caller's LOW.
					parent := frames[len(frames)-2]
					parent.val[reg-uint8(isa.FirstHigh)] = v
					parent.defined[reg-uint8(isa.FirstHigh)] = true
				}
			}
		}
		checkAll := func(step int) {
			cur := frames[len(frames)-1]
			for reg := uint8(1); reg < 32; reg++ {
				var want uint32
				if reg < 10 {
					want = globals[reg]
				} else if cur.defined[reg-10] {
					want = cur.val[reg-10]
				} else {
					continue // unwritten: value is unspecified
				}
				if got := f.Get(reg); got != want {
					t.Fatalf("n=%d step %d depth %d: r%d = %d, want %d",
						n, step, len(frames)-1, reg, got, want)
				}
			}
		}

		for step := 0; step < 4000; step++ {
			switch op := r.Intn(10); {
			case op < 4: // call
				// Model: push child frame; child HIGH := parent LOW.
				parent := frames[len(frames)-1]
				child := &frame{}
				copy(child.val[isa.FirstHigh-10:], parent.val[:isa.OverlapRegs])
				copy(child.defined[isa.FirstHigh-10:], parent.defined[:isa.OverlapRegs])
				frames = append(frames, child)
				d.call()
			case op < 7 && len(frames) > 1: // return
				// Model: pop; parent LOW := child HIGH.
				child := frames[len(frames)-1]
				frames = frames[:len(frames)-1]
				parent := frames[len(frames)-1]
				copy(parent.val[:isa.OverlapRegs], child.val[isa.FirstHigh-10:])
				copy(parent.defined[:isa.OverlapRegs], child.defined[isa.FirstHigh-10:])
				d.ret()
			default: // random write
				writeVisible(uint8(r.Intn(32)), r.Uint32())
			}
			checkAll(step)
		}
	}
}

func TestSpillRateMatchesDepthWalk(t *testing.T) {
	// A straight descent of depth D with N windows spills exactly
	// D - (N-2) windows and fills the same number on the way back.
	const n, depth = 8, 20
	f := New(n)
	d := &driver{f: f}
	for i := 0; i < depth; i++ {
		d.call()
	}
	wantSpills := depth - (n - 2)
	if len(d.stack) != wantSpills {
		t.Fatalf("spilled %d windows, want %d", len(d.stack), wantSpills)
	}
	for i := 0; i < depth; i++ {
		d.ret()
	}
	if len(d.stack) != 0 {
		t.Fatalf("%d windows still spilled after full unwind", len(d.stack))
	}
	if f.CWP() != 0 {
		t.Fatalf("CWP = %d after unwind", f.CWP())
	}
}

func TestGetInInspectsOtherWindows(t *testing.T) {
	f := New(8)
	f.Set(16, 111) // caller local
	f.PushWindow()
	f.Set(16, 222) // callee local, same visible name
	if got := f.GetIn(f.CWP()-1, 16); got != 111 {
		t.Errorf("caller's r16 via GetIn = %d, want 111", got)
	}
	if got := f.GetIn(f.CWP(), 16); got != 222 {
		t.Errorf("current r16 via GetIn = %d, want 222", got)
	}
	if f.GetIn(f.CWP(), 0) != 0 {
		t.Error("GetIn r0 not zero")
	}
	f.Set(4, 9)
	if f.GetIn(f.CWP()-1, 4) != 9 {
		t.Error("globals must be visible from every window")
	}
}

func TestReset(t *testing.T) {
	f := New(4)
	f.Set(17, 9)
	f.PushWindow()
	f.Reset()
	if f.CWP() != 0 || f.Get(17) != 0 || f.Spilled() != 0 {
		t.Error("Reset did not restore power-on state")
	}
}

func TestSaveBytes(t *testing.T) {
	if SaveBytes != 64 {
		t.Fatalf("SaveBytes = %d, want 64 (16 registers)", SaveBytes)
	}
}

// physRows returns a copy of the physical file with the rows held in vis
// laid over it, so a test can read every register at its PhysIndex without
// changing the file.
func (f *File) physRows() []uint32 {
	rows := slices.Clone(f.phys)
	copy(rows, f.vis[:isa.NumGlobalRegs])
	copy(rows[f.base:], f.vis[isa.FirstLow:isa.FirstHigh])
	copy(rows[f.below(f.base):], f.vis[isa.FirstHigh:])
	return rows
}

// TestAddressingMatchesPhysIndex pins the hot-path addressing to the
// reference mapping: at every step of a push/pop/spill/fill walk that wraps
// the physical file several times in both directions, Get reads and Set
// writes exactly the slot PhysIndex names, and r0 reads zero and writes
// nowhere.
func TestAddressingMatchesPhysIndex(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 16} {
		f := New(n)
		if got, want := f.TotalPhys(), isa.NumGlobalRegs+isa.WindowRegs*n; got != want {
			t.Fatalf("n=%d: TotalPhys() = %d, want %d", n, got, want)
		}
		d := &driver{f: f}
		r := rand.New(rand.NewSource(int64(n)))
		step := 0
		check := func() {
			t.Helper()
			step++
			total := f.TotalPhys()
			for reg := uint8(0); reg < 32; reg++ {
				if got, want := f.Get(reg), f.GetIn(f.CWP(), reg); got != want {
					t.Fatalf("n=%d step %d cwp %d: Get(r%d) = %#x, GetIn = %#x", n, step, f.CWP(), reg, got, want)
				}
				before := f.physRows()[:total]
				v := ^f.Get(reg)
				f.Set(reg, v)
				slot := -1
				if reg != 0 {
					slot = f.PhysIndex(f.CWP(), reg)
				}
				after := f.physRows()
				for i, old := range before {
					if i == slot {
						if after[i] != v {
							t.Fatalf("n=%d step %d: Set(r%d) left phys[%d] = %#x, want %#x", n, step, reg, i, after[i], v)
						}
					} else if after[i] != old {
						t.Fatalf("n=%d step %d: Set(r%d) changed phys[%d], want only phys[%d]", n, step, reg, i, slot)
					}
				}
				if reg == 0 && f.Get(0) != 0 {
					t.Fatalf("n=%d step %d: Get(0) = %#x after Set(0)", n, step, f.Get(0))
				}
			}
		}
		// slot is the physical window a logical one occupies; counting its
		// wraps from N−1 to 0 (and back) proves the walk crossed the end of
		// the file.
		slot := func(w int) int { return ((w % n) + n) % n }
		downWraps, upWraps := 0, 0
		// extra spills and fills the walk may make on its own, beyond what
		// the driver's calls and returns force.
		churn := func() {
			switch r.Intn(4) {
			case 0:
				if f.Spilled() < f.CWP() {
					d.stack = append(d.stack, f.SpillOldest())
					check()
				}
			case 1:
				if f.Spilled() > 0 && f.CWP()-f.Spilled()+2 <= n-1 {
					f.FillNewest(d.stack[len(d.stack)-1])
					d.stack = d.stack[:len(d.stack)-1]
					check()
				}
			}
		}
		check()
		for round := 0; round < 2; round++ {
			for i := 0; i < 2*n+1; i++ {
				before := slot(f.CWP())
				d.call()
				if slot(f.CWP()) < before {
					downWraps++
				}
				check()
				churn()
			}
			for f.CWP() > 0 {
				before := slot(f.CWP())
				d.ret()
				if slot(f.CWP()) > before {
					upWraps++
				}
				check()
				churn()
			}
		}
		if downWraps < 2 || upWraps < 2 {
			t.Fatalf("n=%d: walk wrapped the file %d times calling and %d returning, want at least 2 each", n, downWraps, upWraps)
		}
		f.Reset()
		check()
	}
}

// BenchmarkCallReturn times one call and its return. resident stays inside
// the hardware windows; spill-fill runs with the file full, so the call
// spills the oldest window first and the return fills it back, as the
// CPU's trap handler does for a call chain that oscillates across the
// window boundary.
func BenchmarkCallReturn(b *testing.B) {
	b.Run("resident", func(b *testing.B) {
		f := New(DefaultWindows)
		for i := 0; i < b.N; i++ {
			f.PushWindow()
			f.PopWindow()
		}
	})
	b.Run("spill-fill", func(b *testing.B) {
		f := New(DefaultWindows)
		for !f.NeedSpill() {
			f.PushWindow()
		}
		for i := 0; i < b.N; i++ {
			save := f.SpillOldest()
			f.PushWindow()
			f.PopWindow()
			f.FillNewest(save)
		}
	})
}
