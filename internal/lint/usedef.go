package lint

import "risc1/internal/isa"

// checkUseBeforeDef flags register reads that no path from any root has
// preceded with a definition. The merge is a union — "defined on some
// path" — so a register is flagged only when it is provably uninitialized
// everywhere it could arrive from, which keeps the pass quiet on code that
// merely has one cold path.
//
// Window semantics are deliberately coarse: labeled functions seed with
// every register defined (their callers pass arguments the analysis cannot
// see), and a call-return edge marks the argument/result overlap registers
// defined (the callee legitimately leaves values there). The pass therefore
// bites mainly on straight-line and entry-function code — which is exactly
// where hand-written assembly reads a register it forgot to load.
func (p *program) checkUseBeforeDef() {
	in := make([]uint32, 2*p.n)
	seen := make([]bool, 2*p.n)

	var entryDefined uint32
	for r := 0; r <= 9; r++ { // globals: r0, sp r9 among them
		entryDefined |= 1 << r
	}
	entryDefined |= 1 << linkReg // reset linkage
	if !p.opts.Flat {
		for r := 26; r <= 31; r++ { // high-window incoming-parameter area
			entryDefined |= 1 << r
		}
	}
	// Registers a returning callee may have rewritten (and so "defines"):
	// the windowed argument/result overlap, the link, and in flat mode the
	// global argument registers.
	var retClobber uint32
	for r := 10; r <= 15; r++ {
		retClobber |= 1 << r
	}
	retClobber |= 1 << linkReg
	if p.opts.Flat {
		for r := 1; r <= 6; r++ {
			retClobber |= 1 << r
		}
	}

	var wl []int
	seed := func(node int, v uint32) {
		if node < 0 || node >= 2*p.n {
			return
		}
		if !seen[node] || in[node]|v != in[node] {
			seen[node] = true
			in[node] |= v
			wl = append(wl, node)
		}
	}
	if p.entryIdx >= 0 {
		seed(2*p.entryIdx, entryDefined)
	}
	if p.hasDataMark {
		for idx := range p.labels {
			seed(2*idx, ^uint32(0))
		}
	}
	var eb [2]cfgEdge
	for len(wl) > 0 {
		node := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		out := in[node]
		if d, ok := p.insts[node/2].DestReg(); ok {
			out |= 1 << d
		}
		for _, e := range p.g.Edges(eb[:0], node) {
			v := out
			if e.Ret {
				v |= retClobber
			}
			seed(e.To, v)
		}
	}

	reported := map[int]uint32{}
	var regs []uint8
	for i := 0; i < p.n; i++ {
		if !p.executed(i) || !p.ok[i] {
			continue
		}
		avail := uint32(0)
		got := false
		for _, node := range [2]int{2 * i, 2*i + 1} {
			if p.reach[node] && seen[node] {
				avail |= in[node]
				got = true
			}
		}
		if !got {
			continue // reachable only from depth-only roots; no facts
		}
		regs = readRegs(p.insts[i], regs[:0])
		for _, r := range regs {
			bit := uint32(1) << r
			if avail&bit != 0 || reported[i]&bit != 0 {
				continue
			}
			reported[i] |= bit
			p.reportAt(SevWarning, "use-before-def", i,
				"r%d is read here but no path from the entry defines it first", r)
		}
	}
}

// readRegs appends the registers in reads, excluding the operands this pass
// must not flag: r0 (always zero), store data (flat prologues save
// callee-saved registers that are intentionally still unwritten), and
// nothing for the long formats and the Rd-only writers.
func readRegs(in isa.Inst, dst []uint8) []uint8 {
	if in.Op.Long() {
		return dst
	}
	switch in.Op {
	case isa.OpCALLINT, isa.OpGETPSW:
		return dst
	}
	if in.Rs1 != 0 {
		dst = append(dst, in.Rs1)
	}
	if !in.Imm && in.Rs2 != 0 {
		dst = append(dst, in.Rs2)
	}
	if in.IsReturn() && in.Rd != 0 {
		dst = append(dst, in.Rd)
	}
	return dst
}
