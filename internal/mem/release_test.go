package mem

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"unsafe"
)

// drainFree empties the free list so the next New allocates and the one
// after a Release provably reuses the released buffer.
func drainFree() {
	freeRAM.Lock()
	freeRAM.bufs = nil
	freeRAM.Unlock()
}

func freeCount() int {
	freeRAM.Lock()
	defer freeRAM.Unlock()
	return len(freeRAM.bufs)
}

// TestReleasedMemoryFaults pins use after Release: every RAM access is an
// ordinary out-of-memory *Fault, never a panic, and a second Release does
// nothing.
func TestReleasedMemoryFaults(t *testing.T) {
	drainFree()
	m := New(2 * pageSize)
	mustStore(t, m, 0x10, 0xDEADBEEF)
	mustStore(t, m, ConsolePutInt, 42)
	m.Release()
	if m.Size() != 0 {
		t.Fatalf("Size after Release = %d, want 0", m.Size())
	}
	if m.Console() != "42" {
		t.Errorf("console after Release = %q, want 42", m.Console())
	}
	for _, addr := range []uint32{0, 0x10, 2*pageSize - 4} {
		accesses := map[string]error{
			"LoadProgram": m.LoadProgram(addr, []byte{1}),
			"Store8":      m.Store8(addr, 1),
			"Store16":     m.Store16(addr, 1),
			"Store32":     m.Store32(addr, 1),
		}
		_, accesses["Load8"] = m.Load8(addr)
		_, accesses["Load16"] = m.Load16(addr)
		_, accesses["Load32"] = m.Load32(addr)
		_, accesses["Fetch32"] = m.Fetch32(addr)
		_, accesses["FetchByte"] = m.FetchByte(addr)
		_, accesses["Bytes"] = m.Bytes(addr, 1)
		for name, err := range accesses {
			var f *Fault
			if !errors.As(err, &f) || !f.OutOfMem {
				t.Errorf("%s(%#x) after Release: got %v, want out-of-memory fault", name, addr, err)
			}
		}
	}
	if n := freeCount(); n != 1 {
		t.Fatalf("free list holds %d buffers after one Release, want 1", n)
	}
	m.Release()
	if n := freeCount(); n != 1 {
		t.Errorf("second Release changed the free list to %d buffers", n)
	}
}

// TestFreeListBound checks the list keeps at most GOMAXPROCS buffers and
// drops a buffer released past that bound.
func TestFreeListBound(t *testing.T) {
	drainFree()
	defer drainFree()
	limit := runtime.GOMAXPROCS(0)
	var ms []*Memory
	for i := 0; i < limit; i++ {
		ms = append(ms, New(pageSize))
	}
	extra := New(4 * pageSize)
	for _, m := range ms {
		m.Release()
	}
	extra.Release()
	if n := freeCount(); n != limit {
		t.Fatalf("free list holds %d buffers, want GOMAXPROCS = %d", n, limit)
	}
	freeRAM.Lock()
	defer freeRAM.Unlock()
	for _, b := range freeRAM.bufs {
		if cap(b) != pageSize {
			t.Errorf("free list kept a %d-byte buffer released past the bound", cap(b))
		}
	}
}

// applyOps decodes data into stores and program loads on m. Each 5-byte
// record is kind, address selector, two address bytes and a value byte; the
// selectors reach the last word of RAM, page boundaries, the console and the
// SMP device pages as well as arbitrary (possibly out-of-range) addresses.
// Errors are expected and ignored: the property is about RAM contents.
func applyOps(m *Memory, size int, data []byte) {
	for ; len(data) >= 5; data = data[5:] {
		kind, sel, a, v := data[0], data[1], uint32(binary.BigEndian.Uint16(data[2:])), data[4]
		pages := uint32(size+pageSize-1) / pageSize
		var addr uint32
		switch sel % 8 {
		case 0:
			addr = a * 61 % uint32(size+16)
		case 1:
			addr = uint32(size-4)&^3 + a%4
		case 2:
			addr = (1+a%pages)*pageSize - 1 - a%4
		case 3:
			addr = ConsoleBase + a%3*4
		case 4:
			addr = LockBase + a%LockCount*4
		case 5:
			addr = SMPBase + a%32*4
		case 6:
			addr = uint32(size) - 1 - a%64
		case 7:
			addr = a % pages * pageSize
		}
		val := uint32(v)*0x01010101 | 0x80
		switch kind % 4 {
		case 0:
			_ = m.Store8(addr, uint8(val))
		case 1:
			_ = m.Store16(addr, uint16(val))
		case 2:
			_ = m.Store32(addr, val)
		case 3:
			span := make([]byte, 1+int(a)%(2*pageSize+8))
			for i := range span {
				span[i] = uint8(val) | 1
			}
			_ = m.LoadProgram(addr, span)
		}
	}
}

// checkFresh fails unless m is as New promises: all-zero RAM of the given
// size (and zero up to the buffer's capacity, which later New calls may
// use), no traffic and an empty console.
func checkFresh(t *testing.T, m *Memory, size int) {
	t.Helper()
	if m.Size() != size {
		t.Fatalf("Size = %d, want %d", m.Size(), size)
	}
	b, err := m.Bytes(0, size)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range b {
		if x != 0 {
			t.Fatalf("byte %#x of a new memory is %#x, want 0", i, x)
		}
	}
	for i, x := range m.ram[size:cap(m.ram)] {
		if x != 0 {
			t.Fatalf("byte %#x past len of a reused buffer is %#x, want 0", size+i, x)
		}
	}
	if m.Reads != 0 || m.Writes != 0 || m.Console() != "" || m.ConsoleTruncated() {
		t.Fatalf("new memory not fresh: reads %d writes %d console %q",
			m.Reads, m.Writes, m.Console())
	}
}

// FuzzReleaseZeroes checks that a released buffer comes back from New all
// zero, whatever the run before it wrote, at the same size and at half.
func FuzzReleaseZeroes(f *testing.F) {
	f.Add(uint32(1<<20), []byte{2, 1, 0, 0, 0xAB, 0, 2, 0, 3, 7, 3, 2, 1, 0, 9})
	f.Add(uint32(3*pageSize+10), []byte{3, 2, 0, 1, 1, 3, 7, 0x1F, 0xFF, 5, 2, 3, 0, 1, 4})
	f.Add(uint32(70*pageSize), []byte{2, 7, 0, 69, 1, 3, 0, 0x30, 0x39, 2, 1, 6, 0, 9, 8})
	f.Add(uint32(4*pageSize), []byte{2, 4, 0, 5, 0, 2, 5, 0, 2, 1, 0, 3, 0, 1, 0x33})
	f.Fuzz(func(t *testing.T, sizeSel uint32, ops []byte) {
		size := 4 + int(sizeSel%(80*pageSize))
		drainFree()
		defer drainFree()

		m := New(size)
		buf := unsafe.SliceData(m.ram)
		applyOps(m, size, ops)
		m.Release()

		full := New(size)
		if unsafe.SliceData(full.ram) != buf {
			t.Fatal("New did not reuse the released buffer")
		}
		checkFresh(t, full, size)
		applyOps(full, size, ops)
		full.Release()

		half := New(size / 2)
		if unsafe.SliceData(half.ram) != buf {
			t.Fatal("New did not reuse the released buffer")
		}
		checkFresh(t, half, size/2)
		applyOps(half, size/2, ops)
		half.Release()
	})
}
