package regwin

import (
	"encoding/binary"
	"testing"

	"risc1/internal/isa"
)

// refFile is the naive register file FuzzRegwin checks File against. It
// keeps the globals and one 16-register array per hardware window slot,
// holding that window's LOCAL then HIGH registers (the save image). A
// window's LOW registers have no storage of their own: they are the HIGH
// registers of the next slot, its callee's. Nothing here shares File's
// layout, which stores LOW and LOCAL per slot and finds HIGH in the slot
// below.
type refFile struct {
	n, cwp, spilled int
	globals         [isa.NumGlobalRegs]uint32
	win             [][isa.WindowRegs]uint32
}

func newRef(n int) *refFile {
	return &refFile{n: n, win: make([][isa.WindowRegs]uint32, n)}
}

func (m *refFile) slot(w int) *[isa.WindowRegs]uint32 {
	return &m.win[((w%m.n)+m.n)%m.n]
}

// cell returns the storage behind register r as window w sees it, or nil
// for r0.
func (m *refFile) cell(w int, r uint8) *uint32 {
	switch {
	case r == 0:
		return nil
	case r < isa.FirstLow:
		return &m.globals[r]
	case r < isa.FirstLocal: // LOW: the callee's HIGH
		return &m.slot(w + 1)[numLocal+int(r)-isa.FirstLow]
	case r < isa.FirstHigh:
		return &m.slot(w)[int(r)-isa.FirstLocal]
	default:
		return &m.slot(w)[numLocal+int(r)-isa.FirstHigh]
	}
}

func (m *refFile) getIn(w int, r uint8) uint32 {
	if c := m.cell(w, r); c != nil {
		return *c
	}
	return 0
}

func (m *refFile) get(r uint8) uint32 { return m.getIn(m.cwp, r) }

func (m *refFile) set(r uint8, v uint32) {
	if c := m.cell(m.cwp, r); c != nil {
		*c = v
	}
}

// The hardware holds at most N−1 windows: N−1 resident windows fill the
// file, because the newest one's LOW lives in the slot above it.
func (m *refFile) needSpill() bool { return m.cwp+1-m.spilled+1 > m.n-1 }
func (m *refFile) needFill() bool  { return m.cwp-1 < m.spilled }
func (m *refFile) canFill() bool   { return m.spilled > 0 && m.cwp-(m.spilled-1)+1 <= m.n-1 }

// FuzzRegwin replays a byte-coded sequence of pushes, pops, spills, fills,
// writes, reads and resets on a File and on refFile, and requires every
// visible register, every window row (through GetIn), the window counters
// and every spilled image to agree after each step. The first byte picks N
// in 3..16. Pushes and pops spill or fill first when they must, as the
// CPU's trap handler does.
func FuzzRegwin(f *testing.F) {
	f.Add([]byte{0, 9, 10, 1, 2, 3, 4, 0, 0, 0, 0, 0, 9, 26, 5, 6, 7, 8, 4, 4, 4, 4, 4, 4, 13, 10})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 15, 13, 31})
	f.Add([]byte{1, 0, 0, 0, 7, 7, 8, 3, 0xAA, 0xBB, 0xCC, 0xDD, 4, 4, 4, 9, 0, 1, 1, 1, 1, 13, 0})
	f.Add([]byte{13, 0, 9, 12, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := 3 + int(ops[0]%14)
		ops = ops[1:]
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		word := func() uint32 {
			var b [4]byte
			for i := range b {
				b[i] = next()
			}
			return binary.LittleEndian.Uint32(b[:])
		}

		file, ref := New(n), newRef(n)
		if got, want := file.TotalPhys(), isa.NumGlobalRegs+isa.WindowRegs*n; got != want {
			t.Fatalf("n=%d: TotalPhys() = %d, want %d", n, got, want)
		}
		var stack []WindowSave
		step := 0
		spill := func() {
			got, want := file.SpillOldest(), WindowSave(*ref.slot(ref.spilled))
			ref.spilled++
			if got != want {
				t.Fatalf("n=%d step %d: spilled image %v, want %v", n, step, got, want)
			}
			stack = append(stack, got)
		}
		fill := func(img WindowSave) {
			file.FillNewest(img)
			ref.spilled--
			*ref.slot(ref.spilled) = img
		}
		pop := func() WindowSave {
			img := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return img
		}

		for len(ops) > 0 {
			step++
			switch op := next() % 16; {
			case op < 4: // call
				if ref.needSpill() {
					spill()
				}
				file.PushWindow()
				ref.cwp++
			case op < 7: // return
				if ref.needFill() {
					if len(stack) == 0 {
						break
					}
					fill(pop())
				}
				file.PopWindow()
				ref.cwp--
			case op == 7:
				if ref.spilled < ref.cwp {
					spill()
				}
			case op == 8: // fill, with one register of the image replaced
				if len(stack) > 0 && ref.canFill() {
					img := pop()
					img[next()%isa.WindowRegs] = word()
					fill(img)
				}
			case op < 13:
				r := next() & 31
				v := word()
				file.Set(r, v)
				ref.set(r, v)
			case op < 15:
				r := next() & 31
				if got, want := file.Get(r), ref.get(r); got != want {
					t.Fatalf("n=%d step %d: Get(r%d) = %#x, want %#x", n, step, r, got, want)
				}
			default:
				file.Reset()
				*ref = *newRef(n)
				stack = stack[:0]
			}

			if file.CWP() != ref.cwp || file.Spilled() != ref.spilled {
				t.Fatalf("n=%d step %d: cwp/spilled = %d/%d, want %d/%d",
					n, step, file.CWP(), file.Spilled(), ref.cwp, ref.spilled)
			}
			if file.NeedSpill() != ref.needSpill() || file.NeedFill() != ref.needFill() {
				t.Fatalf("n=%d step %d: NeedSpill/NeedFill = %v/%v, want %v/%v",
					n, step, file.NeedSpill(), file.NeedFill(), ref.needSpill(), ref.needFill())
			}
			for r := uint8(0); r < 32; r++ {
				if got, want := file.Get(r), ref.get(r); got != want {
					t.Fatalf("n=%d step %d cwp %d: r%d = %#x, want %#x", n, step, ref.cwp, r, got, want)
				}
			}
			// The N windows ending at cwp name every window row once. Rows
			// outside the resident windows hold what a returned or spilled
			// window left there, as on the hardware, so they must agree too.
			for w := ref.cwp - n + 1; w <= ref.cwp; w++ {
				for r := uint8(isa.FirstLow); r < 32; r++ {
					if got, want := file.GetIn(w, r), ref.getIn(w, r); got != want {
						t.Fatalf("n=%d step %d cwp %d: GetIn(%d, r%d) = %#x, want %#x", n, step, ref.cwp, w, r, got, want)
					}
				}
			}
		}
	})
}
