package lint

import (
	"fmt"

	"risc1/internal/asm"
	"risc1/internal/cfg"
	"risc1/internal/isa"
)

// The analyzer's graph — two nodes per code word, slot nodes carrying the
// outer transfer's edges, min-call-depth worklist — lives in internal/cfg,
// shared with the interpreter's block engine. This file binds it to the
// image being linted: symbol-derived roots, the code/data split, and
// diagnostic plumbing.

// linkReg is r25, the link register of both calling conventions and the
// register the reset linkage preselects so `ret r25,#8` at depth 0 halts.
const linkReg = 25

// dataStartSym is the symbol both compiler back ends emit between code and
// data. Hand-written sources may define it to get the same split.
const dataStartSym = "__data_start"

const depthUnknown = cfg.DepthUnknown

// cfgEdge is the shared package's edge type; the pass files predate the
// extraction and keep the local name.
type cfgEdge = cfg.Edge

type program struct {
	img  *asm.Image
	opts Options
	g    *cfg.Program

	org     uint32
	insts   []isa.Inst
	ok      []bool
	n       int    // code words
	codeEnd uint32 // org + 4n
	imgEnd  uint32 // org + len(Bytes)

	// hasDataMark reports the image carries dataStartSym. Only then are
	// labels trusted as code roots: without the split, a label may name
	// data whose bytes happen to decode.
	hasDataMark bool
	labels      map[int]bool // word index carries at least one symbol

	reach    []bool // 2n node reachability
	minDepth []int  // 2n minimum known call depth; depthUnknown if none

	entryIdx int

	diags []Diagnostic
}

func newProgram(img *asm.Image, opts Options) *program {
	code := img.Bytes
	hasMark := false
	if ds, ok := img.Symbols[dataStartSym]; ok && ds >= img.Org && ds <= img.Org+uint32(len(img.Bytes)) {
		code = img.Bytes[:ds-img.Org]
		hasMark = true
	}
	insts, okv := isa.DecodeBlock(code)
	if len(insts) == 0 {
		return nil
	}
	g := cfg.New(img.Org, insts, okv)
	p := &program{
		img:         img,
		opts:        opts,
		g:           g,
		org:         img.Org,
		insts:       insts,
		ok:          okv,
		n:           g.N(),
		codeEnd:     g.CodeEnd(),
		imgEnd:      img.Org + uint32(len(img.Bytes)),
		hasDataMark: hasMark,
		labels:      map[int]bool{},
		entryIdx:    -1,
	}
	for name, a := range img.Symbols {
		if name == dataStartSym {
			continue
		}
		if idx, ok := p.indexOf(a); ok {
			p.labels[idx] = true
		}
	}
	if idx, ok := p.indexOf(img.Entry); ok && p.ok[idx] {
		p.entryIdx = idx
	} else {
		p.report(SevError, "cfg", img.Entry, 0,
			"entry point is not a decodable instruction inside the code segment")
	}
	return p
}

func (p *program) addrOf(idx int) uint32 { return p.g.AddrOf(idx) }

func (p *program) indexOf(addr uint32) (int, bool) { return p.g.IndexOf(addr) }

func (p *program) report(sev Severity, pass string, pc uint32, idx int, format string, args ...any) {
	d := Diagnostic{
		Severity: sev,
		Pass:     pass,
		PC:       pc,
		Line:     p.img.LineFor(pc),
		Message:  fmt.Sprintf(format, args...),
	}
	if idx >= 0 && idx < p.n && p.ok[idx] {
		d.Disasm = p.insts[idx].String()
	}
	p.diags = append(p.diags, d)
}

// reportAt is report with the PC derived from the word index.
func (p *program) reportAt(sev Severity, pass string, idx int, format string, args ...any) {
	p.report(sev, pass, p.addrOf(idx), idx, format, args...)
}

// delayed reports whether in owns a delay slot.
func delayed(in isa.Inst) bool { return cfg.Delayed(in) }

// targetAddr resolves a transfer's statically-known destination.
func (p *program) targetAddr(idx int, in isa.Inst) (uint32, bool) {
	return p.g.TargetAddr(idx, in)
}

// staticTarget is targetAddr projected onto a code-word index.
func (p *program) staticTarget(idx int, in isa.Inst) (int, bool) {
	return p.g.StaticTarget(idx, in)
}

// walk computes reachability and minimum call depth over the node graph.
// Roots: the entry at depth 0, plus — when the image marks its code/data
// split — every labeled code word at unknown depth (interrupt handlers and
// indirectly-called functions are reachable even when no static path shows
// it).
func (p *program) walk() {
	var roots []int
	if p.hasDataMark {
		for idx := range p.labels {
			roots = append(roots, idx)
		}
	}
	r := p.g.Walk(p.entryIdx, roots)
	p.reach, p.minDepth = r.Reach, r.MinDepth
}

// executed reports whether any mode of word idx is reachable.
func (p *program) executed(idx int) bool {
	return idx >= 0 && idx < p.n && (p.reach[2*idx] || p.reach[2*idx+1])
}
