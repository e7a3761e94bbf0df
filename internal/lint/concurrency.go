package lint

import (
	"fmt"
	"sort"
	"strings"

	"risc1/internal/isa"
	"risc1/internal/mem"
)

// Concurrency passes: a static lockset/escape analysis for programs that
// use the SMP device pages (spawn/join mailbox and test-and-set lock page).
//
//   - smp-race: stores reachable from spawned worker code to statically
//     resolvable shared addresses, where no lock is provably held in common
//     with the word's other worker accesses.
//   - smp-lock: lock discipline — acquiring a lock already held on every
//     path (self-deadlock), releasing a lock held on no path (a runtime
//     fault on this machine), and lock-order inversion (deadlock
//     candidates) over the acquisition-order graph.
//   - smp-spawn: join with no spawn anywhere in the image, and a spawn
//     fired from a delay slot (the handle read that follows can be skipped
//     by the in-flight transfer).
//
// The passes engage automatically when a windowed image contains SMP
// operations — calls to the compiler's __lock/__unlock/__spawn/__join
// runtime, or direct constant-address device accesses — and can be forced
// with Options.SMP.
//
// Soundness shape: lock state is a forward dataflow over the delay-slot
// CFG, with a MUST set (intersection at merges) feeding the race and
// double-lock checks and a MAY set (union) feeding unlock-without-lock, so
// each check errs away from false positives. The race check is
// deliberately limited to what is static here: only addresses the constant
// propagation can resolve (r0-relative idioms, ldhi/add chains, and the
// gp-relative form rooted in the startup stub), only code reachable from
// spawned worker entries, and only access pairs two worker instances can
// actually execute concurrently. Register-computed addresses (array
// indexing) and worker-versus-main overlap are left to the dynamic race
// detector in internal/smp, which has the fork/join order this analysis
// lacks — the corpus contract validates the two sides against each other.

// Device-page geometry, mirrored from internal/mem.
const (
	lockPageBase = mem.LockBase
	lockPageEnd  = mem.LockBase + 4*mem.LockCount
	spawnFnAddr  = mem.SMPSpawnFn
	joinBase     = mem.SMPJoinBase
	joinEnd      = mem.SMPJoinBase + 4*mem.SMPJoinMax
)

// runtimeNames are the Cm SMP runtime entry points. Their bodies reach the
// device pages through worker-specific registers; the call sites carry the
// statically-visible semantics, so the bodies are excluded from op
// discovery and access collection.
var runtimeNames = map[string]bool{
	"__spawn": true, "__join": true, "__lock": true, "__unlock": true,
}

// smpOpKind classifies a discovered SMP operation.
type smpOpKind int

const (
	opAcquire smpOpKind = iota // lock(k): __lock call or test-and-set load
	opRelease                  // unlock(k): __unlock call or store 0 to lock word
	opSpawn                    // __spawn call or direct SPAWNFN store
	opJoin                     // __join call or join-page load
)

// smpOp is one discovered operation.
type smpOp struct {
	kind smpOpKind
	idx  int  // word index of the call / device access
	call bool // via a runtime call (idx is the callr) vs a direct access
	lock int  // lock index for acquire/release; -1 unknown
	fn   int  // worker entry word index for spawn; -1 unknown
}

type concurrency struct {
	p   *program
	ops []smpOp

	rtEntry map[int]string // word idx -> runtime name
	rtSkip  []bool         // per word: inside a runtime body

	effect map[int]smpOp // node -> lock effect applied when leaving it

	// globalConst resolves registers with exactly one constant definition
	// site in the whole image — the Cm global pointer (r8, anchored by the
	// startup stub) above all. Only r1..r9 qualify: higher registers are
	// window-renamed, so one textual definition is many physical ones.
	// It is built on first use (globalFallback).
	globalConst map[uint8]uint32

	must, may []uint64 // per-node lock state on entry
	seen      []bool   // node participated in the lock dataflow
}

const fullSet = ^uint64(0)

// checkConcurrency runs the suite when it applies. Discovery comes first
// and builds only what it needs: the runtime bodies when the image names a
// runtime entry, the global constant table when a block-local scan falls
// back to it.
func (p *program) checkConcurrency() {
	if p.opts.Flat || p.entryIdx < 0 {
		return
	}
	c := &concurrency{p: p}
	c.findRuntime()
	c.discoverOps()
	if len(c.ops) == 0 && !p.opts.SMP {
		return
	}
	c.lockDataflow()
	c.checkLockDiscipline()
	c.checkLockOrder()
	c.checkSpawnJoin()
	c.checkRaces()
}

// findRuntime locates the SMP runtime bodies so discovery can skip them.
// A body runs from its entry symbol to the next non-local symbol (or the
// end of code); hand-written images without the symbols skip nothing.
func (c *concurrency) findRuntime() {
	p := c.p
	c.rtEntry = map[int]string{}
	c.rtSkip = make([]bool, p.n)
	named := false
	for name := range runtimeNames {
		if _, ok := p.img.Symbols[name]; ok {
			named = true
			break
		}
	}
	if !named {
		return
	}
	type sym struct {
		addr uint32
		name string
	}
	var syms []sym
	for name, a := range p.img.Symbols {
		if !strings.HasPrefix(name, ".L") && name != dataStartSym {
			syms = append(syms, sym{a, name})
		}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })
	for i, s := range syms {
		if !runtimeNames[s.name] {
			continue
		}
		idx, ok := p.indexOf(s.addr)
		if !ok {
			continue
		}
		c.rtEntry[idx] = s.name
		end := p.n
		if i+1 < len(syms) {
			if e, ok := p.indexOf(syms[i+1].addr); ok {
				end = e
			}
		}
		for j := idx; j < end; j++ {
			c.rtSkip[j] = true
		}
	}
}

// findGlobalConsts resolves the global registers (r1..r9) that the whole
// image defines exactly once as a constant: a lone `add r0,#k,r` or
// `ldhi r,#hi`, or the adjacent `ldhi r,#hi` + `add r,#lo,r` pair that a
// wide li/la expands to.
func (c *concurrency) findGlobalConsts() {
	p := c.p
	c.globalConst = map[uint8]uint32{}
	// One pass records each register's number of definitions and its
	// first two sites.
	var ndefs [10]int
	var defs [10][2]int
	for i := 0; i < p.n; i++ {
		if r := p.insts[i].Rd; p.ok[i] && r >= 1 && r <= 9 && writesReg(p.insts[i], r) {
			if ndefs[r] < 2 {
				defs[r][ndefs[r]] = i
			}
			ndefs[r]++
		}
	}
	for r := uint8(1); r <= 9; r++ {
		switch d := defs[r]; ndefs[r] {
		case 1:
			if v, ok := constDef(p.insts[d[0]], r); ok {
				c.globalConst[r] = v
			}
		case 2:
			if d[1] != d[0]+1 {
				continue
			}
			hi, hiOK := constDef(p.insts[d[0]], r)
			base, lo, loOK := chaseDef(p.insts[d[1]], r)
			if hiOK && loOK && base == r {
				c.globalConst[r] = hi + lo
			}
		}
	}
}

// constDef resolves in as a complete constant definition of r: the li/la
// heads `add r0,#k,r` and `ldhi r,#hi`.
func constDef(in isa.Inst, r uint8) (uint32, bool) {
	switch {
	case in.Op == isa.OpADD && !in.SCC && in.Rd == r && in.Rs1 == 0 && in.Imm:
		return uint32(in.Imm13), true
	case in.Op == isa.OpLDHI && in.Rd == r:
		return uint32(in.Imm19) << 13, true
	}
	return 0, false
}

// chaseDef resolves in as an incremental definition `add rs,#k,r` (which
// covers the mov pseudo and the low half of wide li/la): the value is rs
// plus k.
func chaseDef(in isa.Inst, r uint8) (base uint8, delta uint32, ok bool) {
	if in.Op == isa.OpADD && !in.SCC && in.Rd == r && in.Imm && in.Rs1 != 0 {
		return in.Rs1, uint32(in.Imm13), true
	}
	return 0, 0, false
}

// writesReg reports whether in writes register r (r != 0 assumed).
func writesReg(in isa.Inst, r uint8) bool {
	switch in.Op.Cat() {
	case isa.CatALU, isa.CatLoad:
		return in.Rd == r
	case isa.CatStore, isa.CatControl:
		return false
	}
	switch in.Op {
	case isa.OpLDHI, isa.OpGTLPC, isa.OpGETPSW:
		return in.Rd == r
	}
	return false
}

// constAt resolves the value register r holds when word idx executes, by
// scanning backward through the dominating straight-line code: li/la
// expansions and mov chains resolve; a transfer, an inbound label, or an
// opaque producer gives up — unless the register still being chased has a
// single constant definition in the whole image (the Cm global pointer
// pattern), which holds across any block boundary. With checkSlot (call
// sites), idx+1 is examined first — the delay-slot optimizer hoists
// argument setup into the slot of the call it feeds, where it still
// executes before the callee.
func (c *concurrency) constAt(idx int, r uint8, checkSlot bool) (uint32, bool) {
	if r == 0 {
		return 0, true
	}
	p := c.p
	reg, off := r, uint32(0)
	if checkSlot && idx+1 < p.n && p.ok[idx+1] {
		if slot := p.insts[idx+1]; writesReg(slot, r) {
			if v, ok := constDef(slot, r); ok {
				return v, true
			}
			b, d, ok := chaseDef(slot, r)
			if !ok {
				return 0, false // the slot clobbers r opaquely
			}
			reg, off = b, d
		}
	}
	for i := idx - 1; i >= 0; i-- {
		if !p.ok[i] {
			return c.globalFallback(reg, off)
		}
		in := p.insts[i]
		if in.Op.Transfers() || (i+1 < idx && p.labels[i+1]) {
			// Block boundary: i no longer dominates idx.
			return c.globalFallback(reg, off)
		}
		if !writesReg(in, reg) {
			continue
		}
		if v, ok := constDef(in, reg); ok {
			return v + off, true
		}
		if b, d, ok := chaseDef(in, reg); ok {
			reg, off = b, off+d
			continue
		}
		return 0, false
	}
	return c.globalFallback(reg, off)
}

// globalFallback resolves reg through the single-definition global table
// when the block-local scan runs out of dominating code.
func (c *concurrency) globalFallback(reg uint8, off uint32) (uint32, bool) {
	if c.globalConst == nil {
		c.findGlobalConsts()
	}
	if v, ok := c.globalConst[reg]; ok {
		return v + off, true
	}
	return 0, false
}

// discoverOps finds the image's SMP operations: calls into the runtime
// (with the argument resolved through r10, the windowed out-arg register)
// and direct constant-address device accesses outside the runtime bodies.
func (c *concurrency) discoverOps() {
	p := c.p
	const argOut = 10
	for i := 0; i < p.n; i++ {
		if !p.executed(i) || !p.ok[i] || c.rtSkip[i] {
			continue
		}
		in := p.insts[i]
		if in.IsCall() {
			tidx, known := p.staticTarget(i, in)
			if !known {
				continue
			}
			name := c.rtEntry[tidx]
			if name == "" {
				continue
			}
			op := smpOp{idx: i, call: true, lock: -1, fn: -1}
			switch name {
			case "__lock":
				op.kind = opAcquire
			case "__unlock":
				op.kind = opRelease
			case "__spawn":
				op.kind = opSpawn
			case "__join":
				op.kind = opJoin
			}
			if arg, ok := c.constAt(i, argOut, true); ok {
				switch op.kind {
				case opAcquire, opRelease:
					if arg < mem.LockCount {
						op.lock = int(arg)
					}
				case opSpawn:
					if fidx, ok := p.indexOf(arg); ok && p.ok[fidx] {
						op.fn = fidx
					}
				}
			}
			c.ops = append(c.ops, op)
			continue
		}
		cat := in.Op.Cat()
		if (cat != isa.CatLoad && cat != isa.CatStore) || !in.Imm {
			continue
		}
		base, baseOK := c.constAt(i, in.Rs1, false)
		if !baseOK {
			continue
		}
		a := base + uint32(in.Imm13)
		switch {
		case a >= lockPageBase && a < lockPageEnd:
			op := smpOp{idx: i, lock: int(a-lockPageBase) / 4, fn: -1}
			if cat == isa.CatLoad {
				op.kind = opAcquire
			} else {
				op.kind = opRelease
			}
			c.ops = append(c.ops, op)
		case a == spawnFnAddr && cat == isa.CatStore:
			op := smpOp{idx: i, kind: opSpawn, lock: -1, fn: -1}
			if v, ok := c.constAt(i, in.Rd, false); ok {
				if fidx, ok := p.indexOf(v); ok && p.ok[fidx] {
					op.fn = fidx
				}
			}
			c.ops = append(c.ops, op)
		case a >= joinBase && a < joinEnd && cat == isa.CatLoad:
			c.ops = append(c.ops, smpOp{idx: i, kind: opJoin, lock: -1, fn: -1})
		}
	}
}

// lockDataflow propagates MUST- and MAY-held lock sets forward over the
// node graph from the same roots the reachability walk uses. A runtime
// call's effect rides its return edge (the callee body is skipped); a
// direct device access's effect applies leaving its own word. Ordinary
// calls are lockset-transparent across the return and also propagate into
// the callee, so a helper called under a lock analyzes as holding it.
func (c *concurrency) lockDataflow() {
	p := c.p
	n := 2 * p.n
	c.effect = map[int]smpOp{}
	for _, op := range c.ops {
		if op.kind != opAcquire && op.kind != opRelease {
			continue
		}
		if op.call {
			c.effect[2*(op.idx+1)+1] = op
		} else {
			c.effect[2*op.idx] = op
			c.effect[2*op.idx+1] = op
		}
	}
	c.must = make([]uint64, n)
	c.may = make([]uint64, n)
	c.seen = make([]bool, n)
	for i := range c.must {
		c.must[i] = fullSet
	}
	var wl []int
	seed := func(node int) {
		if node >= 0 && node < n && !c.seen[node] {
			c.seen[node] = true
			c.must[node], c.may[node] = 0, 0
			wl = append(wl, node)
		}
	}
	seed(2 * p.entryIdx)
	if p.hasDataMark {
		for idx := range p.labels {
			if !c.rtSkip[idx] {
				seed(2 * idx)
			}
		}
	}
	var eb [2]cfgEdge
	for len(wl) > 0 {
		node := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		mustOut, mayOut := c.must[node], c.may[node]
		if op, ok := c.effect[node]; ok {
			mustOut, mayOut = applyLock(op, mustOut, mayOut)
		}
		for _, e := range p.g.Edges(eb[:0], node) {
			if e.Callee && c.rtSkip[e.To/2] {
				continue // runtime body: modeled on the return edge
			}
			if !c.seen[e.To] {
				c.seen[e.To] = true
				c.must[e.To], c.may[e.To] = mustOut, mayOut
				wl = append(wl, e.To)
				continue
			}
			nm, ny := c.must[e.To]&mustOut, c.may[e.To]|mayOut
			if nm != c.must[e.To] || ny != c.may[e.To] {
				c.must[e.To], c.may[e.To] = nm, ny
				wl = append(wl, e.To)
			}
		}
	}
}

// applyLock applies one acquire/release to the (must, may) pair. Unknown
// indices push both sets toward "nothing provably held": an unknown
// acquire adds to may only; an unknown release may have released anything.
func applyLock(op smpOp, must, may uint64) (uint64, uint64) {
	if op.kind == opAcquire {
		if op.lock < 0 {
			return must, fullSet
		}
		bit := uint64(1) << uint(op.lock)
		return must | bit, may | bit
	}
	if op.lock < 0 {
		return 0, may
	}
	bit := uint64(1) << uint(op.lock)
	return must &^ bit, may &^ bit
}

// heldBefore is the lock state on entry to an op: the dataflow value at
// the node whose exit carries the op's effect.
func (c *concurrency) heldBefore(op smpOp) (must, may uint64) {
	node := 2 * op.idx
	if op.call {
		node = 2*(op.idx+1) + 1
	}
	if c.seen[node] {
		return c.must[node], c.may[node]
	}
	if c.seen[node^1] {
		return c.must[node^1], c.may[node^1]
	}
	return 0, 0
}

// accessLocks is the MUST lock set when word idx executes, meeting both
// execution modes.
func (c *concurrency) accessLocks(idx int) uint64 {
	out, any := fullSet, false
	for _, node := range [2]int{2 * idx, 2*idx + 1} {
		if c.seen[node] {
			out &= c.must[node]
			any = true
		}
	}
	if !any {
		return 0
	}
	return out
}

// checkLockDiscipline reports double-lock and unlock-without-lock.
func (c *concurrency) checkLockDiscipline() {
	p := c.p
	for _, op := range c.ops {
		if op.lock < 0 {
			continue
		}
		bit := uint64(1) << uint(op.lock)
		must, may := c.heldBefore(op)
		switch op.kind {
		case opAcquire:
			if must&bit != 0 {
				p.reportAt(SevError, "smp-lock", op.idx,
					"lock %d is acquired while already held on every path: the spin can never succeed (self-deadlock)",
					op.lock)
			}
		case opRelease:
			if may&bit == 0 {
				p.reportAt(SevWarning, "smp-lock", op.idx,
					"lock %d is released but held on no path to this point (a runtime fault on this machine)",
					op.lock)
			}
		}
	}
}

// checkLockOrder builds the acquisition-order graph — an edge j->k when
// lock k is acquired while j is provably held — and reports every edge on
// a cycle: two such sites can each take their first lock and then wait
// forever for the other's.
func (c *concurrency) checkLockOrder() {
	var site [mem.LockCount][mem.LockCount]int
	var have, reach [mem.LockCount][mem.LockCount]bool
	for _, op := range c.ops {
		if op.kind != opAcquire || op.lock < 0 {
			continue
		}
		must, _ := c.heldBefore(op)
		for j := 0; j < mem.LockCount; j++ {
			if j != op.lock && must&(1<<uint(j)) != 0 {
				if !have[j][op.lock] {
					have[j][op.lock] = true
					site[j][op.lock] = op.idx
				}
				reach[j][op.lock] = true
			}
		}
	}
	for k := 0; k < mem.LockCount; k++ {
		for i := 0; i < mem.LockCount; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < mem.LockCount; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	for j := 0; j < mem.LockCount; j++ {
		for k := 0; k < mem.LockCount; k++ {
			if have[j][k] && reach[k][j] {
				c.p.reportAt(SevWarning, "smp-lock", site[j][k],
					"lock order inversion: lock %d is acquired while holding lock %d, and elsewhere %d is acquired while holding %d (deadlock candidate)",
					k, j, j, k)
			}
		}
	}
}

// checkSpawnJoin reports join-without-spawn and spawn-in-delay-slot.
func (c *concurrency) checkSpawnJoin() {
	p := c.p
	spawns := 0
	for _, op := range c.ops {
		if op.kind == opSpawn {
			spawns++
		}
	}
	for _, op := range c.ops {
		switch op.kind {
		case opJoin:
			if spawns == 0 {
				p.reportAt(SevWarning, "smp-spawn", op.idx,
					"join with no spawn anywhere in the image: the handle can never name a live worker")
			}
		case opSpawn:
			if !op.call && p.reach[2*op.idx+1] {
				p.reportAt(SevWarning, "smp-spawn", op.idx,
					"spawn fired from a delay slot: the in-flight transfer can skip the code that reads the handle")
			}
		}
	}
}

// concAccess is one statically-resolved data access in worker-reachable
// code.
type concAccess struct {
	idx     int
	write   bool
	locks   uint64
	entries uint // bitmask of worker entries reaching this site
	multi   bool // two instances of this site's code can overlap
}

// checkRaces reports shared words written by worker-reachable code with no
// lock provably in common with the word's other worker accesses.
func (c *concurrency) checkRaces() {
	p := c.p
	// Worker entries and their instance counts: a spawn in a loop (the op
	// can re-execute itself) means unbounded instances of that entry.
	entryList := []int{}
	entryPos := map[int]int{}
	count := map[int]int{}
	for _, op := range c.ops {
		if op.kind != opSpawn || op.fn < 0 {
			continue
		}
		if _, ok := entryPos[op.fn]; !ok {
			entryPos[op.fn] = len(entryList)
			entryList = append(entryList, op.fn)
		}
		count[op.fn]++
		if c.inLoop(op) {
			count[op.fn] += 2
		}
	}
	if len(entryList) == 0 || len(entryList) > 64 {
		return
	}
	// Per-entry reachability, so access pairs can be tested for genuine
	// concurrency: a once-spawned worker does not race with itself.
	reaches := make([][]bool, len(entryList))
	for i, e := range entryList {
		reaches[i] = p.g.Walk(-1, []int{e}).Reach
	}

	accesses := map[uint32][]concAccess{}
	for i := 0; i < p.n; i++ {
		if !p.ok[i] || c.rtSkip[i] {
			continue
		}
		var ent uint
		multi := false
		for ei := range entryList {
			if reaches[ei][2*i] || reaches[ei][2*i+1] {
				ent |= 1 << uint(ei)
				if count[entryList[ei]] >= 2 {
					multi = true
				}
			}
		}
		if ent == 0 {
			continue
		}
		in := p.insts[i]
		cat := in.Op.Cat()
		if (cat != isa.CatLoad && cat != isa.CatStore) || !in.Imm {
			continue
		}
		base, ok := c.constAt(i, in.Rs1, false)
		if !ok {
			continue
		}
		a := base + uint32(in.Imm13)
		if a >= lockPageBase { // device pages and console are not data
			continue
		}
		if ent&(ent-1) != 0 {
			multi = true // shared by two different workers
		}
		w := a &^ 3
		accesses[w] = append(accesses[w], concAccess{
			idx: i, write: cat == isa.CatStore, locks: c.accessLocks(i),
			entries: ent, multi: multi,
		})
	}

	var addrs []uint32
	for a := range accesses {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		list := accesses[a]
	report:
		for _, wr := range list {
			if !wr.write {
				continue
			}
			for _, other := range list {
				if !concurrentPair(wr, other) {
					continue
				}
				if wr.locks&other.locks != 0 {
					continue
				}
				what := "read"
				if other.write {
					what = "write"
				}
				p.reportAt(SevWarning, "smp-race", wr.idx,
					"store to shared word 0x%08x%s can race with the %s at 0x%08x: no lock is held in common by the worker instances",
					a, c.symSuffix(a), what, p.addrOf(other.idx))
				break report
			}
		}
	}
}

// concurrentPair reports whether two worker accesses (possibly the same
// site) can execute in overlapping worker instances: either side's code
// runs in two instances at once, or the sites belong to different spawned
// entries.
func concurrentPair(a, b concAccess) bool {
	if a.multi || b.multi {
		return true
	}
	return a.entries != b.entries || a.entries&(a.entries-1) != 0
}

// inLoop reports whether a spawn op can re-execute: its post-op node
// reaches the op again.
func (c *concurrency) inLoop(op smpOp) bool {
	p := c.p
	start := 2 * (op.idx + 1)
	if op.call {
		start = 2 * (op.idx + 2) // past the callr and its slot
	}
	visited := make([]bool, 2*p.n)
	stack := []int{start, start + 1}
	var eb [2]cfgEdge
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if node < 0 || node >= 2*p.n || visited[node] {
			continue
		}
		visited[node] = true
		if node/2 == op.idx {
			return true
		}
		for _, e := range p.g.Edges(eb[:0], node) {
			stack = append(stack, e.To)
		}
	}
	return false
}

// symSuffix renders " (name)" when a symbol sits exactly at addr.
func (c *concurrency) symSuffix(addr uint32) string {
	for name, a := range c.p.img.Symbols {
		if a == addr && !strings.HasPrefix(name, ".L") && name != dataStartSym {
			return fmt.Sprintf(" (%s)", name)
		}
	}
	return ""
}
