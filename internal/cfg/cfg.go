// Package cfg models control flow over decoded RISC I code with the
// machine's delayed-transfer semantics. It is the single implementation
// shared by the static analyzer (internal/lint), which walks the whole
// graph for reachability and call-depth facts, and the interpreter's block
// engine (internal/core), which only needs the straight-line spans the
// graph is built from.
//
// The model uses two nodes per code word i: N_i ("normal"), the
// instruction executing on its own, and S_i ("slot"), the same instruction
// executing as the delay slot of the transfer at i-1. The slot is always
// the next sequential word, so the pairing is unique and the whole graph
// fits in two flat arrays. Edges out of S_i are the *transfer's* edges —
// by the time the slot has executed, control moves to the transfer's
// target (or falls through, for an untaken conditional).
//
// Each node carries the minimum call depth at which an entry can reach it
// (CALL/CALLINT push a window, RET/RETINT pop one). Roots walked at
// DepthUnknown — labeled words without a static path — propagate
// "unknown".
package cfg

import (
	"math"

	"risc1/internal/isa"
)

// DepthUnknown marks a node reachable only from roots with no meaningful
// call depth.
const DepthUnknown = math.MaxInt

// Program is a decoded code segment: the words of the image up to the
// code/data split, with OK marking the ones that decode.
type Program struct {
	Org   uint32
	Insts []isa.Inst
	OK    []bool
}

// New wraps an already-decoded code segment. The slices are retained, not
// copied: callers that re-decode must build a fresh Program.
func New(org uint32, insts []isa.Inst, ok []bool) *Program {
	return &Program{Org: org, Insts: insts, OK: ok}
}

// N is the number of code words.
func (p *Program) N() int { return len(p.Insts) }

// CodeEnd is the first address past the code segment.
func (p *Program) CodeEnd() uint32 { return p.Org + uint32(4*len(p.Insts)) }

// AddrOf maps a word index to its address.
func (p *Program) AddrOf(idx int) uint32 { return p.Org + uint32(4*idx) }

// IndexOf maps an address to a word index; false for addresses outside or
// misaligned within the code segment.
func (p *Program) IndexOf(addr uint32) (int, bool) {
	if addr < p.Org || addr >= p.CodeEnd() || (addr-p.Org)%4 != 0 {
		return 0, false
	}
	return int((addr - p.Org) / 4), true
}

// Delayed reports whether in owns a delay slot. Every control transfer
// does except CALLINT, which the hardware takes immediately (it is the
// trap entry path).
func Delayed(in isa.Inst) bool {
	return in.Op.Transfers() && in.Op != isa.OpCALLINT
}

// TargetAddr resolves a transfer's statically-known destination: the
// PC-relative long formats always, the register forms only when they name
// the constant-address idiom (r0 base + immediate). in must be the decoded
// instruction at idx.
func (p *Program) TargetAddr(idx int, in isa.Inst) (uint32, bool) {
	switch in.Op {
	case isa.OpJMPR, isa.OpCALLR:
		return p.AddrOf(idx) + uint32(in.Imm19), true
	case isa.OpJMP, isa.OpCALL:
		if in.Rs1 == 0 && in.Imm {
			return uint32(in.Imm13), true
		}
	}
	return 0, false
}

// StaticTarget is TargetAddr projected onto a code-word index; it reports
// false for dynamic targets and targets outside the code segment.
func (p *Program) StaticTarget(idx int, in isa.Inst) (int, bool) {
	a, ok := p.TargetAddr(idx, in)
	if !ok {
		return 0, false
	}
	return p.IndexOf(a)
}

// Edge is one static successor of a node.
type Edge struct {
	To     int  // node id (idx*2, +1 for slot)
	Delta  int  // call-depth change along the edge
	Ret    bool // call-return edge: the callee may rewrite arg/result registers
	Callee bool // call-entry edge: crosses into another function
}

// Edges appends a node's static successors to dst and returns the result;
// a node has at most two. Nodes past either end and undecodable words have
// none. Callers pass a reused buffer (dst[:0]) so the walks allocate
// nothing per node.
func (p *Program) Edges(dst []Edge, node int) []Edge {
	idx, slot := node/2, node%2 == 1
	if idx >= len(p.Insts) || !p.OK[idx] {
		return dst
	}
	in := p.Insts[idx]
	if !slot {
		if Delayed(in) {
			delta := 0
			switch {
			case in.IsCall():
				delta = 1
			case in.IsReturn():
				delta = -1
			}
			return append(dst, Edge{To: 2*(idx+1) + 1, Delta: delta})
		}
		delta := 0
		if in.Op == isa.OpCALLINT {
			delta = 1
		}
		return append(dst, Edge{To: 2 * (idx + 1), Delta: delta})
	}

	// Slot of the transfer at idx-1: control now moves where the transfer
	// decided. The depth at this node already reflects the window shift.
	t := p.Insts[idx-1]
	switch {
	case t.Op == isa.OpJMP || t.Op == isa.OpJMPR:
		if tidx, known := p.StaticTarget(idx-1, t); known && t.Cond() != isa.CondNEV {
			dst = append(dst, Edge{To: 2 * tidx})
		}
		if t.Cond() != isa.CondALW { // conditional (or never-taken): may fall through
			dst = append(dst, Edge{To: 2 * (idx + 1)})
		}
	case t.IsCall():
		if tidx, known := p.StaticTarget(idx-1, t); known {
			dst = append(dst, Edge{To: 2 * tidx, Callee: true})
		}
		// Assume the callee returns: back to the word after the slot, in
		// the caller's window.
		dst = append(dst, Edge{To: 2 * (idx + 1), Delta: -1, Ret: true})
	case t.IsReturn():
		// Dynamic destination; no static successors.
	}
	return dst
}

// Reach is the result of Walk: per-node reachability and minimum known
// call depth (DepthUnknown when no rooted path carries one).
type Reach struct {
	Reach    []bool
	MinDepth []int
}

// Walk computes reachability and minimum call depth over the node graph
// from the given roots: entry (a word index, or -1 for none) at depth 0,
// plus every word index in roots at unknown depth. Depths only ever
// decrease, so the worklist terminates.
func (p *Program) Walk(entry int, roots []int) Reach {
	n := len(p.Insts)
	r := Reach{
		Reach:    make([]bool, 2*n),
		MinDepth: make([]int, 2*n),
	}
	for i := range r.MinDepth {
		r.MinDepth[i] = DepthUnknown
	}
	wl := make([]int, 0, 64)
	if entry >= 0 {
		wl = r.push(wl, 2*entry, 0)
	}
	for _, idx := range roots {
		wl = r.push(wl, 2*idx, DepthUnknown)
	}
	var buf [2]Edge
	for len(wl) > 0 {
		node := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		d := r.MinDepth[node]
		for _, e := range p.Edges(buf[:0], node) {
			nd := DepthUnknown
			if d != DepthUnknown {
				nd = max(d+e.Delta, 0)
			}
			wl = r.push(wl, e.To, nd)
		}
	}
	return r
}

// push marks node reached at depth d and appends it to the worklist wl
// when that is news: first reach, or a lower known depth.
func (r *Reach) push(wl []int, node, d int) []int {
	if node < 0 || node >= len(r.Reach) {
		return wl
	}
	changed := !r.Reach[node]
	r.Reach[node] = true
	if d != DepthUnknown && d < r.MinDepth[node] {
		r.MinDepth[node] = d
		changed = true
	}
	if changed {
		wl = append(wl, node)
	}
	return wl
}

// Span is a straight-line execution block: Body sequential non-transfer
// words starting at Start, optionally terminated by a delayed transfer and
// its delay slot (Term). A Span never extends past an undecodable word, a
// word the caller's policy rejects, or maxWords total words.
type Span struct {
	Start int
	Body  int
	Term  bool
}

// Words is the number of code words the span covers (Body, plus the
// transfer and its slot when terminated).
func (s Span) Words() int {
	if s.Term {
		return s.Body + 2
	}
	return s.Body
}

// BlockSpan scans the block starting at word start. straight decides which
// non-control instructions may occupy the body or the delay slot; a
// control word terminates the span — with the transfer and slot included
// (Term) only when the transfer is delayed, the slot word decodes, and the
// slot itself is a straight instruction. CALLINT, slotless tails, and
// transfers whose slot is another control word end the span before the
// transfer so the caller can handle those words one at a time.
func (p *Program) BlockSpan(start, maxWords int, straight func(isa.Inst) bool) Span {
	s := Span{Start: start}
	for i := start; i < len(p.Insts) && s.Body < maxWords-2; i++ {
		if !p.OK[i] {
			return s
		}
		in := p.Insts[i]
		if in.Op.Cat() == isa.CatControl {
			if Delayed(in) && i+1 < len(p.Insts) && p.OK[i+1] &&
				p.Insts[i+1].Op.Cat() != isa.CatControl && straight(p.Insts[i+1]) {
				s.Term = true
			}
			return s
		}
		if !straight(in) {
			return s
		}
		s.Body++
	}
	return s
}
