package lint

import "slices"

// checkWindows runs the register-window depth analyses. Neither applies to
// the flat ablation, where CWP never moves.
//
// Underflow: a RET reachable at minimum call depth 0 pops a window that was
// never pushed. The one legitimate shape is the halt convention — `ret
// r25,#8` through the reset-preset link register — so only returns through
// other registers are findings.
//
// Spill pressure: the hardware keeps N-1 activations resident; a static
// call chain deeper than that is guaranteed to spill on every traversal,
// and recursion makes the depth unbounded. Spilling is handled correctly by
// the machine, so both are SevInfo — the performance facts behind the
// paper's window-overflow measurements, not defects.
func (p *program) checkWindows() {
	if p.opts.Flat {
		return
	}
	for i := 0; i < p.n; i++ {
		if !p.reach[2*i] || !p.ok[i] {
			continue
		}
		in := p.insts[i]
		if in.IsReturn() && p.minDepth[2*i] == 0 && in.Rd != linkReg {
			p.reportAt(SevError, "reg-window", i,
				"return through r%d at call depth 0 pops a register window that was never pushed "+
					"(only the halt convention `ret r%d,#8` is defined here)", in.Rd, linkReg)
		}
	}
	p.checkCallChains()
}

// checkCallChains builds a function-level call graph — functions are the
// entry plus every statically-known call target — and measures the longest
// acyclic chain of window pushes from the entry.
//
// A function's body is its CFG closure without crossing call-entry edges,
// not a contiguous address range: the compiler's `__start` *jumps* to main,
// so main's call sites belong to the entry function's chain even though
// main sits between other functions in the image.
func (p *program) checkCallChains() {
	if p.entryIdx < 0 {
		return
	}
	// fn numbers the functions in address order, from 1; 0 marks a word
	// that starts none.
	fn := make([]int32, p.n)
	fn[p.entryIdx] = 1
	for i := 0; i < p.n; i++ {
		if !p.reach[2*i] || !p.ok[i] || !p.insts[i].IsCall() {
			continue
		}
		if tidx, known := p.staticTarget(i, p.insts[i]); known {
			fn[tidx] = 1
		}
	}
	var starts []int
	for i, f := range fn {
		if f != 0 {
			starts = append(starts, i)
			fn[i] = int32(len(starts))
		}
	}

	// Function k's call sites (k numbered from 0), in site order, are
	// calls[first[k]:first[k+1]]. A node's mark is 1 + the number of the
	// last function whose body reached it.
	type call struct{ site, callee int } // word indexes
	var calls []call
	first := make([]int, 1, len(starts)+1)
	mark := make([]int32, 2*p.n)
	var wl []int
	var eb [2]cfgEdge
	for k, f := range starts {
		wl = append(wl[:0], 2*f)
		for len(wl) > 0 {
			node := wl[len(wl)-1]
			wl = wl[:len(wl)-1]
			if node >= 2*p.n || mark[node] == int32(k+1) || !p.reach[node] {
				continue
			}
			mark[node] = int32(k + 1)
			idx := node / 2
			if node%2 == 0 && p.ok[idx] && p.insts[idx].IsCall() {
				if tidx, known := p.staticTarget(idx, p.insts[idx]); known {
					calls = append(calls, call{site: idx, callee: tidx})
				}
			}
			for _, e := range p.g.Edges(eb[:0], node) {
				if !e.Callee {
					wl = append(wl, e.To)
				}
			}
		}
		// Deterministic order for the DFS below.
		slices.SortFunc(calls[first[k]:], func(a, b call) int { return a.site - b.site })
		first = append(first, len(calls))
	}

	const (
		white = iota
		grey
		black
	)
	color := make([]uint8, len(starts)) // per function
	depth := make([]int, len(starts))   // max window pushes below a function
	recursionAt := -1                   // word index of the first back-edge call site
	var visit func(f int) int
	visit = func(f int) int {
		k := fn[f] - 1
		switch color[k] {
		case grey:
			return -1 // back edge: recursion
		case black:
			return depth[k]
		}
		color[k] = grey
		max := 0
		for _, c := range calls[first[k]:first[k+1]] {
			d := visit(c.callee)
			if d < 0 {
				if recursionAt < 0 {
					recursionAt = c.site
				}
				continue
			}
			if 1+d > max {
				max = 1 + d
			}
		}
		color[k] = black
		depth[k] = max
		return max
	}
	maxPush := visit(p.entryIdx)

	if recursionAt >= 0 {
		p.reportAt(SevInfo, "reg-window", recursionAt,
			"recursive call: register-window depth is unbounded, spills occur beyond %d nested activations",
			p.opts.Windows-1)
	}
	if maxPush >= p.opts.Windows-1 {
		p.report(SevInfo, "reg-window", p.img.Entry, p.entryIdx,
			"static call chain reaches depth %d but only %d activations stay resident in %d windows: spill traffic is guaranteed",
			maxPush, p.opts.Windows-1, p.opts.Windows)
	}
}
