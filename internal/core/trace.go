// Trace/superblock tier on top of the basic-block engine. Block leaders
// carry heat counters; when one crosses Config.HotThreshold, the hot path
// out of it — following taken delayed branches, static call bodies and
// fall-throughs picked by measured edge heat — is compiled into one trace.
// Loop traces whose every segment ends in a fast JMP/JMPR dispatch run in
// "turbo" mode: the whole per-iteration accounting (instructions, cycles,
// opcode mix, transfer and delay-slot counters) is hoisted out of the loop
// and charged in bulk on exit, and each segment runs its block's own body
// ops and terminator dispatch. Everything else runs in "chain" mode, which
// replays the planned block sequence through runBlock with a PC guard
// between segments.
//
// Exactness contract (same as the block engine): every exit — guarded
// side-exit off the hot path, fault, MaxCycles split, self-modifying
// store — lands on a machine state Step would produce, with only the
// executed instructions charged. Turbo pre-limits its iteration count so
// no instruction starts at or beyond MaxCycles, and faults charge the
// completed prefix before building the RunError (which snapshots the
// cycle counter).
package core

import (
	"sort"
	"strings"

	"risc1/internal/cfg"
	"risc1/internal/isa"
)

// maxTraceSegs caps how many basic blocks one trace may span.
const maxTraceSegs = 8

// TraceStats are the trace tier's meta counters. They live outside
// stats.Stats on purpose: engines must agree on Stats exactly, and only
// the trace tier has traces to count.
type TraceStats struct {
	Compiled      uint64 // traces compiled (recompiles after invalidation included)
	SideExits     uint64 // guarded exits where execution left the hot path
	Invalidations uint64 // traces dropped by stores into their code
	Instructions  uint64 // dynamic instructions retired inside traces
}

// TraceStats returns the trace tier's counters (all zero unless the
// engine is EngineAuto and something got hot).
func (c *CPU) TraceStats() TraceStats { return c.traceStat }

// HotThreshold reports the configured trace-compile threshold.
func (c *CPU) HotThreshold() uint64 { return c.cfg.HotThreshold }

// turboSeg is one basic block of a turbo trace: its block's body ops and
// terminator dispatch, with the block's fixed accounting kept for partial
// charging.
type turboSeg struct {
	w        uint32 // leader word index
	b        *block
	startPC  uint32
	termPC   uint32
	slotPC   uint32
	ops      []blockOp
	term     func(c *CPU) (uint32, bool) // JMP/JMPR dispatch (cmp-branch may be fused in)
	slotFn   func(c *CPU) error          // nil when the slot is an effect-free nop
	slotNop  bool
	hotTaken bool   // direction that stays on the trace
	offPC    uint32 // where the off-trace direction lands (targets are static)
	costs    []instCost
	nInst    int
}

// turboTrace is a loop trace in bulk-accounting form: per-iteration
// totals charged k at a time on exit.
type turboTrace struct {
	segs       []turboSeg
	iterInsts  int
	iterCycles uint64
	transfers  uint64
	taken      uint64
	slotNops   uint64
	slotUseful uint64
	// simple marks a fault-free, store-free trace, which runSimple runs
	// with the PC pair reconstructed only at exit.
	simple bool
}

// chainSeg is one planned block of a chain trace.
type chainSeg struct {
	w  uint32
	pc uint32
}

// trace is one compiled superblock: turbo or chain form, plus the code
// ranges it covers for write-watch invalidation.
type trace struct {
	head   uint32
	turbo  *turboTrace
	chain  []chainSeg
	ranges [][2]uint32 // covered word ranges [start, end)
}

// noTrace is the cached "tried, not worth a trace" answer.
var noTrace = &trace{}

// bumpHeat credits a block dispatch to its leader and compiles a trace the
// moment the leader's heat reaches the threshold. Compilation triggers
// only on reaching it, so a refused leader (noTrace) is not retried until
// its heat is reset.
func (c *CPU) bumpHeat(w uint32) {
	c.heat[w]++
	if c.heat[w] == c.cfg.HotThreshold {
		c.compileTraceAt(w)
	}
}

// compileTraceAt compiles (or refuses) the trace headed at word w and
// records the result.
func (c *CPU) compileTraceAt(w uint32) {
	if c.traces == nil {
		c.traces = make([]*trace, len(c.predec))
	}
	tr := c.compileTrace(w)
	c.traces[w] = tr
	if tr != noTrace {
		c.liveTraces = append(c.liveTraces, tr)
		c.traceStat.Compiled++
	}
}

// segPlan is one block of a trace under construction, with the hot edge
// chosen out of it.
type segPlan struct {
	w        uint32
	b        *block
	fast     bool // JMP/JMPR terminator: turbo-eligible segment
	hotTaken bool
}

// compileTrace plans the hot path out of leader w using the shared cfg
// flow model, then compiles it: a turbo trace when the path closes a loop
// through fast terminators only, a chain trace when it spans at least two
// blocks, noTrace otherwise.
func (c *CPU) compileTrace(w uint32) *trace {
	p := cfg.New(c.codeOrg, c.predec, c.predecOK)
	var plans []segPlan
	var retStack []uint32
	seen := map[uint32]bool{}
	cur, total, loop := w, 0, false
	for len(plans) < maxTraceSegs {
		if seen[cur] || int(cur) >= len(c.blocks) {
			break
		}
		b := c.blockAt(cur)
		if b == nil || b.nInst == 0 || total+b.nInst > maxBlock {
			break
		}
		seen[cur] = true
		pl := segPlan{w: cur, b: b}
		next, ok := c.traceSuccessor(p, &pl, &retStack)
		plans = append(plans, pl)
		total += b.nInst
		if !ok {
			break
		}
		if next == w && len(retStack) == 0 {
			loop = true
			break
		}
		cur = next
	}
	if len(plans) == 0 {
		return noTrace
	}
	turbo := loop
	for i := range plans {
		if !plans[i].fast {
			turbo = false
			break
		}
	}
	tr := &trace{head: w}
	for _, pl := range plans {
		tr.ranges = append(tr.ranges, [2]uint32{pl.w, pl.w + uint32(pl.b.nInst)})
	}
	if turbo {
		tr.turbo = c.compileTurbo(plans)
		return tr
	}
	if len(plans) < 2 {
		// A lone non-loop block gains nothing over the block engine.
		return noTrace
	}
	for _, pl := range plans {
		tr.chain = append(tr.chain, chainSeg{w: pl.w, pc: c.codeOrg + 4*pl.w})
	}
	return tr
}

// traceSuccessor picks the hot static successor of pl's block, filling in
// the plan's edge fields. ok is false when the successor is dynamic or
// unknown, ending the trace at this segment. Calls push the expected
// return point (the word after the call's slot — the compiler's `ret
// rd,#8` linkage) so a small call body folds into the trace; the chain
// guard catches a callee that returns anywhere else.
func (c *CPU) traceSuccessor(p *cfg.Program, pl *segPlan, retStack *[]uint32) (uint32, bool) {
	b := pl.b
	if !b.term {
		// Straight-line fall-off: the next word follows unconditionally.
		return pl.w + uint32(b.nInst), true
	}
	termIdx := int(pl.w) + b.termIdx
	in := b.termInst
	fallW := pl.w + uint32(b.termIdx) + 2
	switch in.Op {
	case isa.OpJMP, isa.OpJMPR:
		pl.fast = b.termFast != nil
		tw, known := p.StaticTarget(termIdx, in)
		switch in.Cond() {
		case isa.CondALW:
			if !known {
				return 0, false
			}
			pl.hotTaken = true
			return uint32(tw), true
		case isa.CondNEV:
			return fallW, true
		}
		// Conditional: follow the measured hotter edge, taken on ties.
		if known && c.heatAt(uint32(tw)) >= c.heatAt(fallW) {
			pl.hotTaken = true
			return uint32(tw), true
		}
		return fallW, true
	case isa.OpCALL, isa.OpCALLR:
		tw, known := p.StaticTarget(termIdx, in)
		if !known {
			return 0, false
		}
		*retStack = append(*retStack, fallW)
		return uint32(tw), true
	case isa.OpRET, isa.OpRETINT:
		if n := len(*retStack); n > 0 {
			next := (*retStack)[n-1]
			*retStack = (*retStack)[:n-1]
			return next, true
		}
	}
	return 0, false
}

func (c *CPU) heatAt(w uint32) uint64 {
	if w < uint32(len(c.heat)) {
		return c.heat[w]
	}
	return 0
}

// compileTurbo builds the bulk-accounting form of a fast loop trace.
func (c *CPU) compileTurbo(plans []segPlan) *turboTrace {
	t := &turboTrace{}
	simple := true
	for _, pl := range plans {
		b := pl.b
		termPC := b.blockPC(b.termIdx)
		s := turboSeg{
			w:        pl.w,
			b:        b,
			startPC:  b.startPC,
			termPC:   termPC,
			slotPC:   termPC + 4,
			ops:      b.ops,
			term:     b.termFast,
			slotFn:   b.slotFn,
			slotNop:  b.slotNop,
			hotTaken: pl.hotTaken,
			costs:    b.costs,
			nInst:    b.nInst,
		}
		// The off-trace landing point, for exit-time PC reconstruction.
		// Off the fall-through edge that is the static branch target; a
		// dynamic target (register-form JMP) bars the simple form unless
		// that direction is unreachable (never-taken condition).
		if pl.hotTaken {
			s.offPC = s.slotPC + 4
		} else {
			switch {
			case b.termInst.Op == isa.OpJMPR:
				s.offPC = termPC + uint32(b.termInst.Imm19)
			case b.termInst.Op == isa.OpJMP && b.termInst.Rs1 == 0 && b.termInst.Imm:
				s.offPC = uint32(b.termInst.Imm13)
			case b.termInst.Cond() == isa.CondNEV:
				// No taken edge exists; the guard can never fire.
			default:
				simple = false
			}
		}
		// The simple form also requires a fault-free, store-free
		// iteration: no memory operations anywhere in the segment.
		for j, ic := range b.costs {
			if j == b.termIdx {
				continue
			}
			if cat := isa.Op(ic.op).Cat(); cat == isa.CatLoad || cat == isa.CatStore {
				simple = false
				break
			}
		}
		t.segs = append(t.segs, s)
		t.iterInsts += b.nInst
		t.iterCycles += b.fixedCycles
		t.transfers++
		if pl.hotTaken {
			t.taken++
		}
		if b.slotNop {
			t.slotNops++
		} else {
			t.slotUseful++
		}
	}
	t.simple = simple
	return t
}

// runSimple runs up to k iterations of a simple trace: each segment's body
// ops, its branch and its slot, with one direction check per segment and
// no PC maintenance (nothing mid-iteration can fault, store, or observe
// the PC pair). It returns how many iterations completed and the segment
// whose branch left the trace (-1 when all k stayed on it). The slot runs
// after the branch decides and before the guard reads it, like everywhere
// else.
func (c *CPU) runSimple(t *turboTrace, k int) (int, int) {
	for j := 0; j < k; j++ {
		for i := range t.segs {
			s := &t.segs[i]
			for _, op := range s.ops {
				_ = op.fn(c)
			}
			_, taken := s.term(c)
			if s.slotFn != nil {
				_ = s.slotFn(c)
			}
			if taken != s.hotTaken {
				return j, i
			}
		}
	}
	return k, -1
}

// runHotTrace dispatches the trace headed at the current PC, if one
// exists and the machine is at a clean boundary. It returns (0, nil) when
// no trace ran (the caller falls back to the block engine) and (-1, nil)
// when a trace is headed here but the batch remainder is too small to
// enter it — the caller should end the batch so the next one starts at
// the trace head with full budget.
func (c *CPU) runHotTrace(budget int) (int, error) {
	if c.traces == nil || c.inDelay || len(c.pendIRQ) > 0 {
		return 0, nil
	}
	off := c.pc - c.codeOrg
	if off&3 != 0 || off>>2 >= uint32(len(c.traces)) {
		return 0, nil
	}
	tr := c.traces[off>>2]
	if tr == nil || tr == noTrace {
		return 0, nil
	}
	if tr.turbo != nil {
		return c.runTurbo(tr, budget)
	}
	return c.runChain(tr, budget)
}

// runTurbo iterates a loop trace with all accounting hoisted out of the
// loop. The iteration count k is pre-limited so the whole run fits both
// the caller's budget and MaxCycles (every cost is fixed — turbo traces
// contain no window machinery — so k*iterCycles is exact, and with
// Cycles+k*iterCycles <= MaxCycles every instruction starts strictly
// below the limit, exactly the set Step would execute).
func (c *CPU) runTurbo(tr *trace, budget int) (int, error) {
	t := tr.turbo
	if c.stat.Cycles >= c.cfg.MaxCycles {
		return 0, nil
	}
	kc := (c.cfg.MaxCycles - c.stat.Cycles) / t.iterCycles
	if kc == 0 {
		return 0, nil
	}
	k := budget / t.iterInsts
	if k == 0 {
		// The batch remainder is smaller than one iteration. Stepping
		// into the loop body here would skew the next batch off the trace
		// head, so end the batch instead: a fresh one fits an iteration.
		return -1, nil
	}
	if uint64(k) > kc {
		k = int(kc)
	}
	if t.simple {
		// Fault-free, store-free loop: nothing mid-iteration can trap,
		// write code, or observe the PC pair, so the machine state is
		// settled once at exit.
		j, si := c.runSimple(t, k)
		if si >= 0 {
			s := &t.segs[si]
			c.lastPC = s.slotPC
			c.pc = s.offPC
			c.npc = s.offPC + 4
			return c.turboSegExit(t, j, si, !s.hotTaken)
		}
		c.lastPC = t.segs[len(t.segs)-1].slotPC
		c.pc = t.segs[0].startPC
		c.npc = c.pc + 4
		c.chargeTurboIters(t, uint64(k))
		consumed := k * t.iterInsts
		c.traceStat.Instructions += uint64(consumed)
		for si := range t.segs {
			c.heat[t.segs[si].w] += uint64(k)
		}
		return consumed, nil
	}
	gen := c.traceGen
	for j := 0; j < k; j++ {
		for si := range t.segs {
			s := &t.segs[si]
			for oi := range s.ops {
				op := &s.ops[oi]
				if err := op.fn(c); err != nil {
					return 0, c.turboFault(t, j, si, oi, err)
				}
				if op.store && c.traceGen != gen {
					// The store rewrote trace code somewhere; stop right
					// after it, exactly where the block engine would.
					return c.turboStoreExit(t, j, si, oi)
				}
			}
			// Mirror runBlock's fast-terminator path: the slot runs
			// whichever way the branch went, then control moves.
			target, taken := s.term(c)
			c.lastPC = s.termPC
			if taken {
				c.npc = target
			} else {
				c.npc = s.slotPC + 4
			}
			if s.slotFn != nil {
				if err := s.slotFn(c); err != nil {
					return 0, c.turboSlotFault(t, j, si, taken, err)
				}
			}
			c.lastPC = s.slotPC
			c.pc = c.npc
			c.npc = c.pc + 4
			if taken != s.hotTaken || c.traceGen != gen {
				// The branch left the trace, or a store in the slot
				// rewrote trace code. The PC pair is already correct for
				// the actual direction; only the accounting needs settling.
				return c.turboSegExit(t, j, si, taken)
			}
		}
	}
	c.chargeTurboIters(t, uint64(k))
	consumed := k * t.iterInsts
	c.traceStat.Instructions += uint64(consumed)
	for si := range t.segs {
		c.heat[t.segs[si].w] += uint64(k)
	}
	return consumed, nil
}

// chargeTurboIters charges k complete trace iterations in bulk: k more
// full runs of each segment's block.
func (c *CPU) chargeTurboIters(t *turboTrace, k uint64) {
	c.stat.Instructions += k * uint64(t.iterInsts)
	c.stat.Cycles += k * t.iterCycles
	for si := range t.segs {
		c.countRuns(t.segs[si].w, t.segs[si].b, k)
	}
	c.stat.Transfers += k * t.transfers
	c.stat.TakenTransfers += k * t.taken
	c.stat.DelaySlotNops += k * t.slotNops
	c.stat.DelaySlotUseful += k * t.slotUseful
}

// chargeCosts charges a run of individually-accounted instructions.
func (c *CPU) chargeCosts(costs []instCost) {
	for _, ic := range costs {
		c.stat.Instructions++
		c.stat.Cycles += uint64(ic.cycles)
		c.opCounts[ic.op]++
	}
}

// chargeTurboSeg charges one segment that ran to completion, slot
// included, with its branch going the taken way.
func (c *CPU) chargeTurboSeg(s *turboSeg, taken bool) {
	c.chargeCosts(s.costs)
	c.stat.Transfers++
	if taken {
		c.stat.TakenTransfers++
	}
	if s.slotNop {
		c.stat.DelaySlotNops++
	} else {
		c.stat.DelaySlotUseful++
	}
}

// chargeTurboPrefix charges what ran before segment si of iteration j:
// j complete iterations and the on-path segments before si. It returns
// how many instructions that is.
func (c *CPU) chargeTurboPrefix(t *turboTrace, j, si int) int {
	c.chargeTurboIters(t, uint64(j))
	n := j * t.iterInsts
	for sj := range t.segs[:si] {
		s := &t.segs[sj]
		c.chargeTurboSeg(s, s.hotTaken)
		n += s.nInst
	}
	return n
}

// turboFault settles a body fault at segment si, instruction fidx: j full
// iterations plus the executed prefix stay charged (the faulting
// instruction included, as in Step), and the PC pair lands on the
// faulting instruction.
func (c *CPU) turboFault(t *turboTrace, j, si, fidx int, err error) error {
	c.chargeTurboPrefix(t, j, si)
	s := &t.segs[si]
	c.chargeCosts(s.costs[:fidx+1])
	fpc := s.startPC + uint32(4*fidx)
	if fidx > 0 {
		c.lastPC = fpc - 4
	}
	c.pc = fpc
	c.npc = fpc + 4
	return c.runError(fpc, err)
}

// turboSlotFault settles a delay-slot fault: the whole segment (slot
// included) stays charged and npc keeps the branch's decision, exactly
// like the block engine's fast-terminator slot fault.
func (c *CPU) turboSlotFault(t *turboTrace, j, si int, taken bool, err error) error {
	c.chargeTurboPrefix(t, j, si)
	s := &t.segs[si]
	c.chargeTurboSeg(s, taken)
	c.pc = s.slotPC
	return c.runError(s.slotPC, err)
}

// turboStoreExit settles a self-modifying-store exit right after the
// store at segment si, instruction fidx.
func (c *CPU) turboStoreExit(t *turboTrace, j, si, fidx int) (int, error) {
	consumed := c.chargeTurboPrefix(t, j, si)
	s := &t.segs[si]
	c.chargeCosts(s.costs[:fidx+1])
	consumed += fidx + 1
	c.lastPC = s.startPC + uint32(4*fidx)
	c.pc = c.lastPC + 4
	c.npc = c.pc + 4
	c.traceStat.Instructions += uint64(consumed)
	for sj := range t.segs {
		c.heat[t.segs[sj].w] += uint64(j)
	}
	return consumed, nil
}

// turboSegExit settles an exit after segment si ran to completion (slot
// included), with the PC pair already reflecting the actual direction:
// a guarded side exit when the branch went off-trace, or else a delay-slot
// store into trace code.
func (c *CPU) turboSegExit(t *turboTrace, j, si int, taken bool) (int, error) {
	consumed := c.chargeTurboPrefix(t, j, si)
	s := &t.segs[si]
	c.chargeTurboSeg(s, taken)
	consumed += s.nInst
	if taken != s.hotTaken {
		c.traceStat.SideExits++
	}
	c.traceStat.Instructions += uint64(consumed)
	for sj := range t.segs {
		c.heat[t.segs[sj].w] += uint64(j)
	}
	for sj := 0; sj <= si; sj++ {
		c.heat[t.segs[sj].w]++
	}
	return consumed, nil
}

// runChain replays a planned block sequence through runBlock, with a PC
// guard between segments: the moment execution leaves the planned path
// (side exit), the code changes underneath (generation bump), or a
// per-segment gate fails, the chain stops at a state the outer loop
// resumes from exactly.
func (c *CPU) runChain(tr *trace, budget int) (int, error) {
	consumed := 0
	gen := c.traceGen
	for i := range tr.chain {
		s := &tr.chain[i]
		if i > 0 {
			if c.halted || c.traceGen != gen {
				break
			}
			if c.pc != s.pc {
				c.traceStat.SideExits++
				break
			}
		}
		b := c.blockAt(s.w)
		if b == nil || b.nInst == 0 {
			break
		}
		if b.nInst > budget-consumed {
			if i == 0 && c.stat.Cycles+b.cyclesButLast < c.cfg.MaxCycles {
				// Same batch-alignment rule as turbo: don't step into the
				// trace head on fumes, restart it on a fresh batch.
				return -1, nil
			}
			break
		}
		if c.stat.Cycles+b.cyclesButLast >= c.cfg.MaxCycles {
			break
		}
		err := c.runBlock(s.w, b, b.nInst)
		consumed += b.nInst
		c.heat[s.w]++
		if err != nil {
			c.traceStat.Instructions += uint64(consumed)
			return consumed, err
		}
	}
	c.traceStat.Instructions += uint64(consumed)
	return consumed, nil
}

// invalidateTraces drops every live trace overlapping the stored-to word
// range [first, last] and resets the head's heat so the rewritten path
// must re-warm before it is re-traced.
func (c *CPU) invalidateTraces(first, last uint32) {
	if len(c.liveTraces) == 0 {
		return
	}
	kept := c.liveTraces[:0]
	for _, tr := range c.liveTraces {
		hit := false
		for _, r := range tr.ranges {
			if r[0] <= last && first < r[1] {
				hit = true
				break
			}
		}
		if !hit {
			kept = append(kept, tr)
			continue
		}
		c.traces[tr.head] = nil
		if tr.head < uint32(len(c.heat)) {
			c.heat[tr.head] = 0
		}
		c.traceStat.Invalidations++
		c.traceGen++
	}
	c.liveTraces = kept
}

// Profile surface.

// HeatEntry is one row of the execution-heat profile: a block leader, how
// many times it dispatched, and whether it lies inside a live trace.
type HeatEntry struct {
	PC    uint32 `json:"pc"`
	Count uint64 `json:"count"`
	Trace bool   `json:"trace"`
}

// HeatProfile returns the non-zero block-heat table sorted hottest-first
// (ties by address). Heat is counted by the trace tier only (EngineAuto
// without a Retire hook).
func (c *CPU) HeatProfile() []HeatEntry {
	var out []HeatEntry
	for w, h := range c.heat {
		if h == 0 {
			continue
		}
		out = append(out, HeatEntry{
			PC:    c.codeOrg + uint32(4*w),
			Count: h,
			Trace: c.inLiveTrace(uint32(w)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

func (c *CPU) inLiveTrace(w uint32) bool {
	for _, tr := range c.liveTraces {
		for _, r := range tr.ranges {
			if w >= r[0] && w < r[1] {
				return true
			}
		}
	}
	return false
}

// NGram is one measured dynamic opcode n-gram.
type NGram struct {
	Ops   []string `json:"ops"`
	Count uint64   `json:"count"`
}

// HotNGrams ranks the measured dynamic opcode n-grams (n clamped to 2 or
// 3) by estimated execution count and returns the top entries: an
// observability surface showing which instruction sequences run hottest.
func (c *CPU) HotNGrams(n, top int) []NGram {
	if n < 2 {
		n = 2
	}
	if n > 3 {
		n = 3
	}
	counts := c.nGramCounts(n)
	out := make([]NGram, 0, len(counts))
	for key, cnt := range counts {
		ops := make([]string, n)
		for k := n - 1; k >= 0; k-- {
			ops[k] = isa.Op(key & 0x7F).Name()
			key >>= 8
		}
		out = append(out, NGram{Ops: ops, Count: cnt})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return strings.Join(out[i].Ops, " ") < strings.Join(out[j].Ops, " ")
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// nGramCounts estimates dynamic opcode n-gram counts as block heat times
// each block's static opcode sequence — exact while execution stays on
// block boundaries, which is where all the heat is.
func (c *CPU) nGramCounts(n int) map[uint32]uint64 {
	out := map[uint32]uint64{}
	for w, b := range c.blocks {
		if b == nil || b.nInst == 0 {
			continue
		}
		h := c.heat[w]
		if h == 0 {
			continue
		}
		for j := 0; j+n <= len(b.costs); j++ {
			var key uint32
			for k := 0; k < n; k++ {
				key = key<<8 | uint32(b.costs[j+k].op)
			}
			out[key] += h
		}
	}
	return out
}
