package smp

import (
	"fmt"

	"risc1/internal/mem"
)

// Race detection. The detector is a hybrid of Eraser's lockset discipline
// and a fork/join happens-before order, both at the granularity this
// machine actually has:
//
//   - Lockset: every shadow word remembers the set of lock-page locks held
//     at its last write (and last read). Two conflicting accesses from
//     different cores race only if the intersection of their locksets is
//     empty — accesses serialized by a common lock never race, no matter
//     how the scheduler interleaves them.
//   - Happens-before: a core is a serial execution resource, so "thread" =
//     (core, launch epoch). spawn hands the child everything the spawner
//     has done; a join-page poll that observes completion hands the joiner
//     everything the worker did. This kills Eraser's classic false
//     positive — the unlocked read of a result after join() — without
//     giving up the lockset's schedule-independence for the rest.
//
// An access pair is reported as a race when the accesses come from
// different cores, at least one is a write, neither happens-before the
// other, and their locksets are disjoint. Because the lockset test is
// schedule-independent, a racy kernel is flagged even when this run's
// deterministic interleaving happened to dodge the bad outcome.
//
// The detector runs with the step engine forced (Config.Race does this), so
// every access is attributed to the exact program counter executing it. The
// interleaving checked is the one the auto engine runs too (see the package
// doc).

// RaceAccess is one side of a reported race.
type RaceAccess struct {
	Core  int    `json:"core"`
	PC    uint32 `json:"pc"`
	Line  int    `json:"line,omitempty"` // source line via the image line table
	Write bool   `json:"write"`
}

func (a RaceAccess) String() string {
	kind := "read"
	if a.Write {
		kind = "write"
	}
	if a.Line > 0 {
		return fmt.Sprintf("%s by core %d at %#08x (line %d)", kind, a.Core, a.PC, a.Line)
	}
	return fmt.Sprintf("%s by core %d at %#08x", kind, a.Core, a.PC)
}

// Race is a pair of unsynchronized conflicting accesses to one word.
type Race struct {
	Addr uint32     `json:"addr"` // word address (4-byte aligned)
	Prev RaceAccess `json:"prev"`
	Curr RaceAccess `json:"curr"`
}

func (r Race) String() string {
	return fmt.Sprintf("data race at %#08x: %s vs %s", r.Addr, r.Prev, r.Curr)
}

// raceLimit caps reported races; one report per word keeps the list useful,
// the cap keeps a pathological guest from growing it without bound.
const raceLimit = 64

// shadowWord is the per-word shadow state.
type shadowWord struct {
	wCore  int32  // last writer core (-1: never written)
	wPC    uint32 // last write PC
	wClock uint32 // writer's epoch at the write
	wLocks uint64 // locks held at the write
	rCore  int32  // last reader core since the last write (-1: none)
	rPC    uint32
	rClock uint32
	rLocks uint64
	done   bool // a race was already reported for this word
}

// raceDetector implements mem.AccessObserver over the machine's shared
// memory. It is single-goroutine by construction, like the machine itself.
type raceDetector struct {
	m     *Machine
	cur   int // core currently executing a quantum
	held  []uint64
	clock []uint32   // epoch of the thread currently on each core
	vc    [][]uint32 // vc[c][j]: epoch of core j whose effects core c has observed
	words map[uint32]*shadowWord
	races []Race
}

var _ mem.AccessObserver = (*raceDetector)(nil)

func newRaceDetector(m *Machine) *raceDetector {
	n := len(m.cores)
	d := &raceDetector{
		m:     m,
		held:  make([]uint64, n),
		clock: make([]uint32, n),
		vc:    make([][]uint32, n),
		words: make(map[uint32]*shadowWord),
	}
	for i := range d.vc {
		d.vc[i] = make([]uint32, n)
		// Epochs start at 1 so a pre-spawn write by the boot core is not
		// vacuously ordered before everything (vc entries start at 0).
		d.clock[i] = 1
		d.vc[i][i] = 1
	}
	return d
}

// onSpawn records the fork edge spawner→worker: the worker starts a new
// epoch knowing everything the spawner knew, and the spawner's subsequent
// accesses become concurrent with the child.
func (d *raceDetector) onSpawn(spawner, worker int) {
	d.clock[worker]++
	copy(d.vc[worker], d.vc[spawner])
	d.vc[worker][worker] = d.clock[worker]
	d.vc[worker][spawner] = d.clock[spawner]
	d.clock[spawner]++
	d.vc[spawner][spawner] = d.clock[spawner]
	d.held[worker] = 0
}

// ObserveJoinDone records the join edge worker→joiner when a join poll
// observes completion. Polls are idempotent, so re-observing is free.
func (d *raceDetector) ObserveJoinDone(h uint32) {
	w := int(h)
	if w >= len(d.clock) || w == d.cur {
		return
	}
	c := d.cur
	for j := range d.vc[c] {
		if d.vc[w][j] > d.vc[c][j] {
			d.vc[c][j] = d.vc[w][j]
		}
	}
	if d.clock[w] > d.vc[c][w] {
		d.vc[c][w] = d.clock[w]
	}
}

// ObserveLock tracks the current core's held set. A release clears the bit
// on every core: a guest that unlocks another core's lock is broken, but
// the shadow set should still follow the architectural lock word.
func (d *raceDetector) ObserveLock(idx int, acquired bool) {
	bit := uint64(1) << uint(idx)
	if acquired {
		d.held[d.cur] |= bit
		return
	}
	for i := range d.held {
		d.held[i] &^= bit
	}
}

// ordered reports whether everything core w did up to epoch wClock
// happens-before the current point on core c.
func (d *raceDetector) ordered(c, w int, wClock uint32) bool {
	return d.vc[c][w] >= wClock
}

func (d *raceDetector) access(addr uint32, size int, write bool) {
	c := d.cur
	pc := d.m.cores[c].PC()
	locks := d.held[c]
	// Word granularity: narrower accesses shadow the word they live in; an
	// aligned access never straddles words.
	w := addr &^ 3
	sw := d.words[w]
	if sw == nil {
		sw = &shadowWord{wCore: -1, rCore: -1}
		d.words[w] = sw
	}
	if !sw.done {
		if sw.wCore >= 0 && int(sw.wCore) != c &&
			!d.ordered(c, int(sw.wCore), sw.wClock) && sw.wLocks&locks == 0 {
			d.report(w, RaceAccess{Core: int(sw.wCore), PC: sw.wPC, Write: true},
				RaceAccess{Core: c, PC: pc, Write: write}, sw)
		} else if write && sw.rCore >= 0 && int(sw.rCore) != c &&
			!d.ordered(c, int(sw.rCore), sw.rClock) && sw.rLocks&locks == 0 {
			d.report(w, RaceAccess{Core: int(sw.rCore), PC: sw.rPC, Write: false},
				RaceAccess{Core: c, PC: pc, Write: write}, sw)
		}
	}
	if write {
		sw.wCore, sw.wPC, sw.wClock, sw.wLocks = int32(c), pc, d.clock[c], locks
		sw.rCore = -1
	} else {
		sw.rCore, sw.rPC, sw.rClock, sw.rLocks = int32(c), pc, d.clock[c], locks
	}
}

func (d *raceDetector) report(addr uint32, prev, curr RaceAccess, sw *shadowWord) {
	sw.done = true
	if len(d.races) >= raceLimit {
		return
	}
	if img := d.m.img; img != nil {
		prev.Line = img.LineFor(prev.PC)
		curr.Line = img.LineFor(curr.PC)
	}
	d.races = append(d.races, Race{Addr: addr, Prev: prev, Curr: curr})
}

func (d *raceDetector) ObserveLoad(addr uint32, size int)  { d.access(addr, size, false) }
func (d *raceDetector) ObserveStore(addr uint32, size int) { d.access(addr, size, true) }
