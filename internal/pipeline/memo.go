package pipeline

import (
	"risc1/internal/isa"
	"risc1/internal/timing"
)

// Memoized block pricing, in the style of FastSim (Schnarr & Larus, ASPLOS
// 1998). The core reports retirements a block at a time, and a block's
// timing depends on far less than the whole machine: the scoreboard can
// only observe the last three retirements (an older producer is read from
// the register file and its MEM cycle has left the port queue), the
// pending bubble, the delay-slot state, and the run's own outcome. runKey
// and the tail key pack exactly those inputs, runKey with the run's leader
// word. The first run of a block from a given key is priced instruction by
// instruction and its effect stored as a memo entry, found again with one
// probe of an open-addressed index over the whole key. A later run from the
// same key moves only the state the next run starts from (the EX cycle, the
// pending bubble, the delay-slot bits, the window and the exit tail) and
// counts a hit on the entry; Result and flushMemo add each entry's counter
// deltas times its hits. The memo caches the scoreboard's output; it is
// not a second timing model.

// memoEntry is the priced effect of one run from one entry key: counter
// deltas, the exit tail and the state the next run starts from.
type memoEntry struct {
	k0, k1 uint64 // entry key: run shape, then the scoreboard tail
	tail   uint64 // exit tail, encoded like k1
	hits   uint64 // runs priced from the entry, not yet added into res

	pending uint32 // exit pending bubble
	dEx     uint16
	loadUse uint16
	memPort uint16
	window  uint16
	fwdEXMEM,
	fwdMEMWB uint16
	flush, slots, filled uint8
	bits                 uint8 // me* bits
}

// memoEntry bits.
const (
	meSlotPending = 1 << iota
	meSlotTaken
	meTransfer
	meTaken
	mePush // the run's exit window is one past its entry window
	mePop  // ... or one before it
)

// memoCap bounds the memo. A full memo is flushed, and the working set
// warms up again.
const memoCap = 1 << 16

// memoState is the Machine's memo and the bookkeeping that keeps it exact.
type memoState struct {
	memo   []memoEntry // one slice per Machine, reused across Load
	memoOK bool        // destination registers fit the key's 16 bits

	// index is an open-addressed table over memo with linear probing: each
	// slot holds the index+1 of an entry, 0 when empty. Its length is a
	// power of two, sized from the code span at Load and doubled before an
	// insert would fill more than half of it, so every probe ends at an
	// empty slot. shift takes a hash's top bits as a slot.
	index []int32
	shift uint

	// tailKey is the last three retirements encoded relative to ex and
	// the current window: the k1 half of the next run's key. After a hit
	// it is the only up-to-date copy of the tail, and stale is set until
	// materialize writes it back into the scoreboard.
	tailKey uint64
	stale   bool

	// gen is the core's code generation last seen. When it moves, epoch
	// advances and every word's descriptor is re-checked against the next
	// run that retires it.
	gen   uint64
	epoch uint32

	// bypass prices every run exactly and re-checks every descriptor; set
	// only by in-package tests.
	bypass bool

	hits, misses, flushes uint64
}

// memoSlotsPerWord sizes the index at Load: slots per word of code.
const memoSlotsPerWord = 4

func (m *Machine) resetMemo() {
	m.memo = m.memo[:0]
	m.sizeIndex(memoSlotsPerWord * len(m.desc))
	m.tailKey, m.stale = 0, false
	m.gen = m.cpu.CodeGen()
	m.epoch = 1 // every cleared word (vepoch 0) starts unchecked
	m.hits, m.misses, m.flushes = 0, 0, 0
}

// sizeIndex empties the index and gives it the smallest power-of-two
// length of at least n slots (and at least 64), reusing its array.
func (m *Machine) sizeIndex(n int) {
	size, shift := 64, uint(64-6)
	for size < n {
		size, shift = size*2, shift-1
	}
	if cap(m.index) < size {
		m.index = make([]int32, size)
	} else {
		m.index = m.index[:size]
		clear(m.index)
	}
	m.shift = shift
}

// memoHash mixes a memo key into 64 bits; the index takes the top bits.
func memoHash(k0, k1 uint64) uint64 {
	return (k1 ^ k0*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
}

// lookup returns the memo entry for key (k0, k1), or nil.
func (m *Machine) lookup(k0, k1 uint64) *memoEntry {
	mask := len(m.index) - 1
	for i := int(memoHash(k0, k1) >> m.shift); ; i = (i + 1) & mask {
		j := m.index[i]
		if j == 0 {
			return nil
		}
		if me := &m.memo[j-1]; me.k1 == k1 && me.k0 == k0 {
			return me
		}
	}
}

// insert adds memo entry j (an index into memo) to the index. The key is
// not present.
func (m *Machine) insert(j int) {
	me := &m.memo[j]
	mask := len(m.index) - 1
	i := int(memoHash(me.k0, me.k1) >> m.shift)
	for m.index[i] != 0 {
		i = (i + 1) & mask
	}
	m.index[i] = int32(j + 1)
}

// flushMemo adds every entry's counted hits into res and drops the memo.
func (m *Machine) flushMemo() {
	m.addHits(&m.res)
	m.memo = m.memo[:0]
	clear(m.index)
	m.flushes++
}

// addHits adds the priced effect of every counted memo hit into r.
func (m *Machine) addHits(r *Result) {
	for i := range m.memo {
		me := &m.memo[i]
		n := me.hits
		if n == 0 {
			continue
		}
		r.Instructions += n * (me.k0 & 0xFF)
		r.LoadUseStallCycles += n * uint64(me.loadUse)
		r.WindowStallCycles += n * uint64(me.window)
		r.FlushBubbleCycles += n * uint64(me.flush)
		r.MemPortStallCycles += n * uint64(me.memPort)
		r.ForwardsEXMEM += n * uint64(me.fwdEXMEM)
		r.ForwardsMEMWB += n * uint64(me.fwdMEMWB)
		r.DelaySlots += n * uint64(me.slots)
		r.DelaySlotsFilled += n * uint64(me.filled)
		if me.bits&meTransfer != 0 {
			r.Transfers += n
			if me.bits&meTaken != 0 {
				r.TakenTransfers += n
			}
		}
	}
}

// retire is the core's Retire hook: it prices one run of retirements. All
// timing happens here, from the memo when the run's entry key has been
// priced before and through the scoreboard otherwise.
func (m *Machine) retire(pc uint32, insts []isa.Inst, taken bool) {
	// Only the run's call or return can have trapped.
	ovf := m.st.WindowOverflow - m.lastOvf
	unf := m.st.WindowUnderflow - m.lastUnf
	bat := m.st.WindowBatchSpills - m.lastBatch
	m.lastOvf, m.lastUnf, m.lastBatch = m.st.WindowOverflow, m.st.WindowUnderflow, m.st.WindowBatchSpills
	traps := timing.TrapCycles(ovf, unf, bat)

	moved := false
	if g := m.cpu.CodeGen(); g != m.gen {
		m.gen, moved = g, true
		m.epoch++
	}
	off := pc - m.org
	w := int(off >> 2)
	if off&3 != 0 || w+len(insts) > len(m.desc) {
		// Outside the predecoded code: no block runs here, and no memo.
		m.materialize()
		for _, in := range insts {
			d := m.describe(in)
			m.price(&d, taken, traps)
		}
		m.tailKey = m.encodeTail()
		return
	}
	// Within one code generation a word cannot change, so each leader is
	// verified once per generation.
	if e := &m.desc[w]; e.vepoch != m.epoch || int(e.vlen) < len(insts) || m.bypass {
		m.verify(w, insts)
	}
	if moved {
		// The run itself may have stored over code it already retired:
		// what it verified need not be what runs next.
		m.epoch++
	}

	n := len(insts)
	k0, keyed := runKey(w, n, taken, ovf, unf, m.pending, m.slotPending, m.slotTaken)
	// The key need not hold bat: every overflow trap finds n-1 windows
	// resident, so the windows it spills beyond the first are fixed by the
	// window count and SpillBatch, and ovf keys them.
	keyed = keyed && m.memoOK && !m.bypass
	if keyed {
		if me := m.lookup(k0, m.tailKey); me != nil {
			m.apply(me)
			m.hits++
			return
		}
		m.misses++
	}

	m.materialize()
	before, ex0, cwp0, k1 := m.res, m.ex, m.cwp, m.tailKey
	for i := range insts {
		m.price(&m.desc[w+i].d, taken, traps)
	}
	m.tailKey = m.encodeTail()
	if keyed {
		m.store(k0, k1, before, m.ex-ex0, m.cwp-cwp0)
	}
}

// verify checks the descriptors of words [w, w+len(insts)) against the
// instructions that just retired there, describing new words, and records
// the check at leader w for the current epoch. A word that changed since
// it was described invalidates every memo entry, since any of them may
// have priced it. retire skips runs whose leader was already checked this
// epoch; bypass checks every run, which keeps the reference pricing
// independent of that rule.
func (m *Machine) verify(w int, insts []isa.Inst) {
	e := &m.desc[w]
	for i := range insts {
		d := &m.desc[w+i]
		if d.inst == insts[i] {
			continue
		}
		if d.inst.Op != 0 { // opcode 0 is undefined: never described
			m.flushMemo()
		}
		d.inst, d.d = insts[i], m.describe(insts[i])
	}
	if e.vepoch != m.epoch {
		e.vepoch, e.vlen = m.epoch, 0
	}
	if int(e.vlen) < len(insts) {
		e.vlen = uint8(len(insts))
	}
}

// runKey packs the run's leader word, its shape and the untailed
// scoreboard state into the k0 half of a memo key, or reports that they do
// not fit.
func runKey(w, n int, taken bool, ovf, unf, pending uint64, slotPending, slotTaken bool) (uint64, bool) {
	if w >= 1<<28 || n > 0xFF || ovf > 0xF || unf > 0xF || pending > 0xFFFF {
		return 0, false
	}
	k := uint64(n) | ovf<<8 | unf<<12 | pending<<20 | uint64(w)<<36
	if taken {
		k |= 1 << 16
	}
	if slotPending {
		k |= 1 << 17
	}
	if slotTaken {
		k |= 1 << 18
	}
	return k, true
}

// Tail encoding: 21 bits per retirement, newest first. A retirement three
// or more EX cycles old is unobservable and encodes as zero.
const (
	tailBits  = 21
	tailAge   = 0x3 // age+1: 1..3
	tailFlShf = 2   // tlLoad|tlMem|tlFlags, shifted down one
	tailDst   = 5   // encoded destination, 16 bits; 0 = none
)

// encodeTail encodes m.tail relative to m.ex and the current window.
func (m *Machine) encodeTail() uint64 {
	var k uint64
	for i, t := range m.tail {
		age := m.ex - t.ex
		if t.fl&tlValid == 0 || age > 2 {
			break // older retirements are older still
		}
		f := (age + 1) | uint64(t.fl&(tlLoad|tlMem|tlFlags))>>1<<tailFlShf
		if t.fl&tlDest != 0 {
			f |= uint64(m.encodeDst(t.dst)) << tailDst
		}
		k |= f << (tailBits * i)
	}
	return k
}

// encodeDst names physical register p relative to the current window, so
// runs at different recursion depths share memo entries: globals keep
// their index, windowed registers become 10 + their offset from the
// current window's base, modulo the windowed file.
func (m *Machine) encodeDst(p int) uint16 {
	if p < isa.NumGlobalRegs {
		return uint16(p)
	}
	n := len(m.regW) - isa.NumGlobalRegs
	return uint16(isa.NumGlobalRegs + (p-m.win[winCur][selLow]+n)%n)
}

// decodeDst inverts encodeDst in the current window.
func (m *Machine) decodeDst(v uint16) int {
	if v < isa.NumGlobalRegs {
		return int(v)
	}
	n := len(m.regW) - isa.NumGlobalRegs
	base := m.win[winCur][selLow] - isa.NumGlobalRegs
	return isa.NumGlobalRegs + (base+int(v)-isa.NumGlobalRegs)%n
}

// materialize writes a tail restored by memo hits back into the scoreboard
// before the next exact pricing: the window bases, the last three
// retirements, their register and flag scoreboard entries and their
// memory-port cycles. Every other scoreboard entry is older than the tail
// and so unobservable, whatever value it holds.
func (m *Machine) materialize() {
	if !m.stale {
		return
	}
	m.stale = false
	m.rebase(m.cwp)
	m.nbusy = 0
	m.tail = [3]tailRec{}
	for i := len(m.tail) - 1; i >= 0; i-- { // oldest first
		f := m.tailKey >> (tailBits * i) & (1<<tailBits - 1)
		if f == 0 {
			continue
		}
		t := tailRec{ex: m.ex - (f&tailAge - 1), fl: tlValid | uint8(f>>tailFlShf&0x7)<<1}
		load := t.fl&tlLoad != 0
		if v := uint16(f >> tailDst); v != 0 {
			t.fl |= tlDest
			t.dst = m.decodeDst(v)
			m.regW[t.dst] = writeRec{ex: t.ex, load: load, valid: true}
		}
		if t.fl&tlFlags != 0 {
			m.flagW = writeRec{ex: t.ex, load: load, valid: true}
		}
		if t.fl&tlMem != 0 {
			m.busy[m.nbusy] = t.ex + 1
			m.nbusy++
		}
		m.tail[i] = t
	}
}

// apply moves the machine past a run priced from memo entry me and counts
// the hit; the entry's counter deltas reach res through addHits.
func (m *Machine) apply(me *memoEntry) {
	me.hits++
	b := me.bits
	m.ex += uint64(me.dEx)
	m.pending = uint64(me.pending)
	m.slotPending, m.slotTaken = b&meSlotPending != 0, b&meSlotTaken != 0
	switch {
	case b&mePush != 0:
		m.cwp++
	case b&mePop != 0:
		m.cwp--
	}
	m.tailKey = me.tail
	m.stale = true
}

// store records the run just priced exactly as a memo entry, unless a
// delta overflows its field.
func (m *Machine) store(k0, k1 uint64, before Result, dEx uint64, dCwp int) {
	r := &m.res
	d16 := [...]uint64{dEx, r.LoadUseStallCycles - before.LoadUseStallCycles,
		r.MemPortStallCycles - before.MemPortStallCycles,
		r.WindowStallCycles - before.WindowStallCycles,
		r.ForwardsEXMEM - before.ForwardsEXMEM, r.ForwardsMEMWB - before.ForwardsMEMWB}
	d8 := [...]uint64{r.FlushBubbleCycles - before.FlushBubbleCycles,
		r.DelaySlots - before.DelaySlots, r.DelaySlotsFilled - before.DelaySlotsFilled}
	for _, v := range d16 {
		if v > 0xFFFF {
			return
		}
	}
	for _, v := range d8 {
		if v > 0xFF {
			return
		}
	}
	if m.pending > 0xFFFFFFFF || dCwp < -1 || dCwp > 1 {
		return
	}
	var bits uint8
	if m.slotPending {
		bits |= meSlotPending
	}
	if m.slotTaken {
		bits |= meSlotTaken
	}
	if r.Transfers != before.Transfers {
		bits |= meTransfer
	}
	if r.TakenTransfers != before.TakenTransfers {
		bits |= meTaken
	}
	switch dCwp {
	case 1:
		bits |= mePush
	case -1:
		bits |= mePop
	}
	if len(m.memo) == memoCap {
		m.flushMemo()
	}
	if 2*(len(m.memo)+1) > len(m.index) {
		// Keep the index at most half full: double it and reinsert.
		m.sizeIndex(2 * len(m.index))
		for j := range m.memo {
			m.insert(j)
		}
	}
	m.memo = append(m.memo, memoEntry{
		k0: k0, k1: k1, tail: m.tailKey,
		pending: uint32(m.pending),
		dEx:     uint16(d16[0]), loadUse: uint16(d16[1]), memPort: uint16(d16[2]),
		window: uint16(d16[3]), fwdEXMEM: uint16(d16[4]), fwdMEMWB: uint16(d16[5]),
		flush: uint8(d8[0]), slots: uint8(d8[1]), filled: uint8(d8[2]),
		bits: bits,
	})
	m.insert(len(m.memo) - 1)
}
