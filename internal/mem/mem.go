// Package mem provides the byte-addressable, big-endian memory used by both
// simulated machines (RISC I and the CX CISC comparator), including a small
// memory-mapped console device that benchmark programs use to emit results.
package mem

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Console is the memory-mapped output device. A 32-bit store to ConsolePutc
// appends the low byte to the console; a store to ConsolePutInt appends the
// decimal rendering of the word. Loads from ConsoleStatus read 1 (always
// ready). These addresses sit at the very top of the address space, far above
// any RAM a simulation configures.
const (
	ConsoleBase   = 0xFFFF_FF00
	ConsolePutc   = ConsoleBase + 0x0
	ConsolePutInt = ConsoleBase + 0x4
	ConsoleStatus = ConsoleBase + 0x8
)

// DefaultConsoleLimit bounds the console device's buffered output. The suite
// benchmarks print a handful of bytes, so the generous 1 MiB default never
// affects the reproduction; it exists so a guest program in a tight PutInt
// loop cannot grow a long-lived process without bound. Output beyond the
// limit is dropped and the buffer is marked truncated.
const DefaultConsoleLimit = 1 << 20

// AccessKind distinguishes the failure modes a memory access can hit.
type AccessKind uint8

// Access kinds reported in Fault errors.
const (
	AccessLoad AccessKind = iota
	AccessStore
	AccessFetch
)

func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessStore:
		return "store"
	case AccessFetch:
		return "fetch"
	}
	return "access"
}

// Fault describes an illegal memory access: out of bounds, misaligned, or
// injected by a FaultPlan.
type Fault struct {
	Kind     AccessKind
	Addr     uint32
	Size     int
	Misalign bool
	OutOfMem bool
	Injected bool
}

func (f *Fault) Error() string {
	switch {
	case f.Injected:
		return fmt.Sprintf("mem: injected %s fault at %#08x", f.Kind, f.Addr)
	case f.Misalign:
		return fmt.Sprintf("mem: misaligned %d-byte %s at %#08x", f.Size, f.Kind, f.Addr)
	case f.OutOfMem:
		return fmt.Sprintf("mem: %s at %#08x outside memory", f.Kind, f.Addr)
	default:
		return fmt.Sprintf("mem: bad %s at %#08x", f.Kind, f.Addr)
	}
}

// FaultPlan injects memory failures for robustness testing: the trap paths of
// DESIGN.md §7 (bus errors, poisoned devices, flaky cells) become exercisable
// from tests without hand-crafting a guest program that misbehaves. A plan
// fires as a *Fault with Injected set, which the CPUs surface like any other
// memory fault.
type FaultPlan struct {
	// FailNthRead faults the Nth data load after the plan is armed
	// (1-based; 0 disables). Each LoadN call counts as one read.
	FailNthRead uint64
	// FailNthWrite faults the Nth data store likewise.
	FailNthWrite uint64
	// PoisonLo/PoisonHi fault every data access overlapping the address
	// range [PoisonLo, PoisonHi). An empty range (Lo >= Hi) poisons nothing.
	PoisonLo, PoisonHi uint32
	// PoisonFetch extends the poisoned range to instruction fetches.
	PoisonFetch bool

	reads, writes uint64 // accesses observed since the plan was armed
}

// poisoned reports whether [addr, addr+size) overlaps the poison range.
func (p *FaultPlan) poisoned(addr uint32, size int) bool {
	return p.PoisonLo < p.PoisonHi && addr < p.PoisonHi && addr+uint32(size) > p.PoisonLo
}

// SetFaultPlan arms (or, with nil, disarms) fault injection. The plan's
// access counters start from zero at arming time.
func (m *Memory) SetFaultPlan(p *FaultPlan) {
	if p != nil {
		p.reads, p.writes = 0, 0
	}
	m.fault = p
}

// injectFault applies the armed plan to one access, returning the injected
// fault if the plan says this access fails. It is not inlinable, so every
// accessor calls it only when a plan is armed.
func (m *Memory) injectFault(kind AccessKind, addr uint32, size int) error {
	p := m.fault
	switch kind {
	case AccessLoad:
		p.reads++
		if p.reads == p.FailNthRead {
			return &Fault{Kind: kind, Addr: addr, Size: size, Injected: true}
		}
	case AccessStore:
		p.writes++
		if p.writes == p.FailNthWrite {
			return &Fault{Kind: kind, Addr: addr, Size: size, Injected: true}
		}
	case AccessFetch:
		if !p.PoisonFetch {
			return nil
		}
	}
	if p.poisoned(addr, size) {
		return &Fault{Kind: kind, Addr: addr, Size: size, Injected: true}
	}
	return nil
}

// Memory is a flat big-endian RAM with the console device mapped on top.
// All multi-byte accesses must be naturally aligned, per the RISC I rule
// that alignment keeps the memory interface single-cycle.
type Memory struct {
	ram          []byte
	dirty        []uint64 // one bit per page of ram written since New
	console      strings.Builder
	consoleLimit int  // bytes the console retains before dropping output
	consoleTrunc bool // some console output was dropped at the limit
	consoleSink  func(chunk string)

	// Reads counts data loads, Writes data stores, in bytes, for the
	// memory-traffic experiments (E5, E9). Fetch traffic is counted by
	// the CPUs themselves since they know instruction boundaries.
	Reads  uint64
	Writes uint64

	// Write watch: watchFn is called after any store that modifies RAM in
	// [watchLo, watchHi). The CPUs watch their code segment to invalidate
	// predecoded instructions when a program modifies itself.
	watchLo, watchHi uint32
	watchFn          func(addr uint32, size int)

	// fault, when non-nil, injects failures per its plan.
	fault *FaultPlan

	// obs, when non-nil, observes completed data accesses and lock-page
	// transitions (see AccessObserver). The race detector installs one.
	obs AccessObserver

	// locks backs the test-and-set lock page; smp, when non-nil, backs the
	// SMP control page (see smpdev.go).
	locks [LockCount]uint32
	smp   SMPController
}

// pageShift sets the granularity of dirty tracking: Release zeroes RAM in
// 4 KiB pages.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// freeRAM holds released RAM buffers, every byte up to cap already zero, for
// New to reuse. It keeps at most GOMAXPROCS buffers, about one per
// simulation that can run at once: a steady stream of runs then allocates no
// RAM, while an idle process holds only a few megabytes. (sync.Pool's per-P
// caches kept more buffers resident and raised peak RSS.)
var freeRAM struct {
	sync.Mutex
	bufs [][]byte
}

// New returns a memory with size bytes of zeroed RAM starting at address 0.
// The RAM reuses a buffer an earlier Memory released when one is large
// enough; Release hands it back.
func New(size int) *Memory {
	return &Memory{
		ram:          takeRAM(size),
		dirty:        make([]uint64, (size+64*pageSize-1)/(64*pageSize)),
		consoleLimit: DefaultConsoleLimit,
	}
}

// takeRAM returns size zero bytes from the first free buffer that holds
// them, or freshly allocated if none does.
func takeRAM(size int) []byte {
	if size == 0 {
		return nil
	}
	freeRAM.Lock()
	defer freeRAM.Unlock()
	for i, b := range freeRAM.bufs {
		if cap(b) >= size {
			last := len(freeRAM.bufs) - 1
			freeRAM.bufs[i] = freeRAM.bufs[last]
			freeRAM.bufs[last] = nil
			freeRAM.bufs = freeRAM.bufs[:last]
			return b[:size]
		}
	}
	return make([]byte, size)
}

// Release zeroes the pages written since New, returns the RAM to the free
// list and leaves m empty: Size is 0 and every RAM access is an
// out-of-memory Fault. Zeroing only dirty pages makes a short run's release
// cost about what the run touched. Releasing twice does nothing. The caller
// must be done with m's RAM; its console output stays readable. When the
// free list is full the buffer is left to the garbage collector.
func (m *Memory) Release() {
	if m.ram == nil {
		return
	}
	for w, set := range m.dirty {
		for ; set != 0; set &= set - 1 {
			lo := (w*64 + bits.TrailingZeros64(set)) << pageShift
			clear(m.ram[lo:min(lo+pageSize, len(m.ram))])
		}
		m.dirty[w] = 0
	}
	buf := m.ram[:cap(m.ram)]
	m.ram = nil
	freeRAM.Lock()
	defer freeRAM.Unlock()
	if len(freeRAM.bufs) < runtime.GOMAXPROCS(0) {
		freeRAM.bufs = append(freeRAM.bufs, buf)
	}
}

// markDirty records a write to the RAM page holding addr.
func (m *Memory) markDirty(addr uint32) {
	m.dirty[addr>>(pageShift+6)] |= 1 << (addr >> pageShift & 63)
}

// Size returns the RAM size in bytes.
func (m *Memory) Size() int { return len(m.ram) }

// Console returns everything written to the console device so far (up to
// the console limit; see ConsoleTruncated).
func (m *Memory) Console() string { return m.console.String() }

// ConsoleTruncated reports whether console output was dropped because the
// buffer reached its limit.
func (m *Memory) ConsoleTruncated() bool { return m.consoleTrunc }

// SetConsoleLimit caps the console buffer at n bytes; n <= 0 restores
// DefaultConsoleLimit. Lowering the limit below what is already buffered
// keeps the existing output and drops only subsequent writes.
func (m *Memory) SetConsoleLimit(n int) {
	if n <= 0 {
		n = DefaultConsoleLimit
	}
	m.consoleLimit = n
}

// SetConsoleSink registers fn (or, with nil, removes it) to receive every
// console rendering as the guest emits it, before the retained buffer's
// limit is applied. The sink sees chunks the buffer drops at its cap — that
// is the point: a streaming consumer can deliver unbounded console output
// live while the server retains only DefaultConsoleLimit bytes. The sink
// runs on the simulation goroutine; keep it cheap or apply backpressure
// deliberately.
func (m *Memory) SetConsoleSink(fn func(chunk string)) { m.consoleSink = fn }

// consoleAppend buffers s, dropping it (and marking truncation) once the
// buffer is full. A rendering that straddles the limit is dropped whole, so
// the console never ends mid-number.
func (m *Memory) consoleAppend(s string) {
	if m.consoleSink != nil {
		m.consoleSink(s)
	}
	if m.console.Len()+len(s) > m.consoleLimit {
		m.consoleTrunc = true
		return
	}
	m.console.WriteString(s)
}

// AccessObserver receives completed data accesses to RAM plus the
// synchronization events the SMP device pages expose. Observers see only
// accesses that succeed (faulting accesses never happened architecturally)
// and only RAM traffic — console and device-page words are not memory in
// the data-race sense. The race detector in internal/smp implements this.
type AccessObserver interface {
	// ObserveLoad runs after a successful data load of size bytes at addr.
	ObserveLoad(addr uint32, size int)
	// ObserveStore runs after a successful data store of size bytes at addr.
	ObserveStore(addr uint32, size int)
	// ObserveLock runs when lock word idx transitions: acquired reports a
	// 0→held transition (test-and-set load that returned 0, or a direct
	// nonzero store), !acquired a held→0 release.
	ObserveLock(idx int, acquired bool)
	// ObserveJoinDone runs when a join-page load for handle h returns 0,
	// i.e. the polling core has observed the worker's completion.
	ObserveJoinDone(h uint32)
}

// SetObserver installs (or, with nil, removes) the access observer.
func (m *Memory) SetObserver(o AccessObserver) { m.obs = o }

// ResetCounters zeroes the traffic counters without touching RAM contents.
func (m *Memory) ResetCounters() { m.Reads, m.Writes = 0, 0 }

func (m *Memory) check(kind AccessKind, addr uint32, size int) error {
	if addr%uint32(size) != 0 {
		return &Fault{Kind: kind, Addr: addr, Size: size, Misalign: true}
	}
	if uint64(addr)+uint64(size) > uint64(len(m.ram)) {
		return &Fault{Kind: kind, Addr: addr, Size: size, OutOfMem: true}
	}
	return nil
}

func (m *Memory) isConsole(addr uint32) bool { return addr >= ConsoleBase }

// SetWriteWatch registers fn to run after every store that modifies RAM in
// [lo, hi), receiving the store's address and size. A nil fn clears the
// watch. One watch is supported; registering replaces the previous one.
func (m *Memory) SetWriteWatch(lo, hi uint32, fn func(addr uint32, size int)) {
	m.watchLo, m.watchHi, m.watchFn = lo, hi, fn
}

// notifyWrite reports a completed RAM store to the watch, if one covers it.
func (m *Memory) notifyWrite(addr uint32, size int) {
	if m.watchFn != nil && addr < m.watchHi && addr+uint32(size) > m.watchLo {
		m.watchFn(addr, size)
	}
}

// Load8 reads one byte.
func (m *Memory) Load8(addr uint32) (uint8, error) {
	if m.fault != nil {
		if err := m.injectFault(AccessLoad, addr, 1); err != nil {
			return 0, err
		}
	}
	if m.isConsole(addr) {
		m.Reads++
		return 1, nil
	}
	if err := m.check(AccessLoad, addr, 1); err != nil {
		return 0, err
	}
	m.Reads++
	if m.obs != nil {
		m.obs.ObserveLoad(addr, 1)
	}
	return m.ram[addr], nil
}

// Load16 reads a big-endian halfword.
func (m *Memory) Load16(addr uint32) (uint16, error) {
	if m.fault != nil {
		if err := m.injectFault(AccessLoad, addr, 2); err != nil {
			return 0, err
		}
	}
	if m.isConsole(addr) {
		m.Reads += 2
		return 1, nil
	}
	if err := m.check(AccessLoad, addr, 2); err != nil {
		return 0, err
	}
	m.Reads += 2
	if m.obs != nil {
		m.obs.ObserveLoad(addr, 2)
	}
	return uint16(m.ram[addr])<<8 | uint16(m.ram[addr+1]), nil
}

// Load32 reads a big-endian word.
func (m *Memory) Load32(addr uint32) (uint32, error) {
	if m.fault != nil {
		if err := m.injectFault(AccessLoad, addr, 4); err != nil {
			return 0, err
		}
	}
	if m.isConsole(addr) {
		m.Reads += 4
		return 1, nil
	}
	if m.inDevicePages(addr) && addr%4 == 0 {
		return m.deviceLoad32(addr)
	}
	if err := m.check(AccessLoad, addr, 4); err != nil {
		return 0, err
	}
	m.Reads += 4
	if m.obs != nil {
		m.obs.ObserveLoad(addr, 4)
	}
	return uint32(m.ram[addr])<<24 | uint32(m.ram[addr+1])<<16 |
		uint32(m.ram[addr+2])<<8 | uint32(m.ram[addr+3]), nil
}

// Fetch32 reads an instruction word. It is identical to Load32 except it
// does not count toward data-read traffic and reports fetch faults.
func (m *Memory) Fetch32(addr uint32) (uint32, error) {
	if m.fault != nil {
		if err := m.injectFault(AccessFetch, addr, 4); err != nil {
			return 0, err
		}
	}
	if err := m.check(AccessFetch, addr, 4); err != nil {
		return 0, err
	}
	return uint32(m.ram[addr])<<24 | uint32(m.ram[addr+1])<<16 |
		uint32(m.ram[addr+2])<<8 | uint32(m.ram[addr+3]), nil
}

// FetchByte reads one instruction byte (used by the variable-length CX
// machine's fetch unit). Not counted as data traffic.
func (m *Memory) FetchByte(addr uint32) (uint8, error) {
	if m.fault != nil {
		if err := m.injectFault(AccessFetch, addr, 1); err != nil {
			return 0, err
		}
	}
	if err := m.check(AccessFetch, addr, 1); err != nil {
		return 0, err
	}
	return m.ram[addr], nil
}

// Store8 writes one byte.
func (m *Memory) Store8(addr uint32, v uint8) error {
	if m.fault != nil {
		if err := m.injectFault(AccessStore, addr, 1); err != nil {
			return err
		}
	}
	if m.isConsole(addr) {
		return m.consoleStore(addr, uint32(v), 1)
	}
	if err := m.check(AccessStore, addr, 1); err != nil {
		return err
	}
	m.Writes++
	m.ram[addr] = v
	m.markDirty(addr)
	m.notifyWrite(addr, 1)
	if m.obs != nil {
		m.obs.ObserveStore(addr, 1)
	}
	return nil
}

// Store16 writes a big-endian halfword.
func (m *Memory) Store16(addr uint32, v uint16) error {
	if m.fault != nil {
		if err := m.injectFault(AccessStore, addr, 2); err != nil {
			return err
		}
	}
	if m.isConsole(addr) {
		return m.consoleStore(addr, uint32(v), 2)
	}
	if err := m.check(AccessStore, addr, 2); err != nil {
		return err
	}
	m.Writes += 2
	m.ram[addr] = uint8(v >> 8)
	m.ram[addr+1] = uint8(v)
	m.markDirty(addr)
	m.notifyWrite(addr, 2)
	if m.obs != nil {
		m.obs.ObserveStore(addr, 2)
	}
	return nil
}

// Store32 writes a big-endian word.
func (m *Memory) Store32(addr uint32, v uint32) error {
	if m.fault != nil {
		if err := m.injectFault(AccessStore, addr, 4); err != nil {
			return err
		}
	}
	if m.isConsole(addr) {
		return m.consoleStore(addr, v, 4)
	}
	if m.inDevicePages(addr) && addr%4 == 0 {
		return m.deviceStore32(addr, v)
	}
	if err := m.check(AccessStore, addr, 4); err != nil {
		return err
	}
	m.Writes += 4
	m.ram[addr] = uint8(v >> 24)
	m.ram[addr+1] = uint8(v >> 16)
	m.ram[addr+2] = uint8(v >> 8)
	m.ram[addr+3] = uint8(v)
	m.markDirty(addr)
	m.notifyWrite(addr, 4)
	if m.obs != nil {
		m.obs.ObserveStore(addr, 4)
	}
	return nil
}

func (m *Memory) consoleStore(addr, v uint32, size int) error {
	m.Writes += uint64(size)
	switch addr {
	case ConsolePutc:
		m.consoleAppend(string([]byte{uint8(v)}))
	case ConsolePutInt:
		m.consoleAppend(strconv.FormatInt(int64(int32(v)), 10))
	default:
		// Writes to other device addresses are ignored, like a real bus.
	}
	return nil
}

// LoadProgram copies raw bytes into RAM at addr (used by loaders and tests).
func (m *Memory) LoadProgram(addr uint32, data []byte) error {
	if uint64(addr)+uint64(len(data)) > uint64(len(m.ram)) {
		return &Fault{Kind: AccessStore, Addr: addr, Size: len(data), OutOfMem: true}
	}
	copy(m.ram[addr:], data)
	if len(data) > 0 {
		for p := addr &^ (pageSize - 1); p <= addr+uint32(len(data)-1); p += pageSize {
			m.markDirty(p)
		}
	}
	m.notifyWrite(addr, len(data))
	return nil
}

// Bytes exposes a read-only copy of a RAM range for inspection in tests.
func (m *Memory) Bytes(addr uint32, n int) ([]byte, error) {
	if uint64(addr)+uint64(n) > uint64(len(m.ram)) {
		return nil, &Fault{Kind: AccessLoad, Addr: addr, Size: n, OutOfMem: true}
	}
	out := make([]byte, n)
	copy(out, m.ram[addr:])
	return out, nil
}

// SameRAM reports whether m and o hold identical RAM, compared in place.
func (m *Memory) SameRAM(o *Memory) bool { return bytes.Equal(m.ram, o.ram) }
