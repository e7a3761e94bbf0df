package cc

import (
	"strings"
	"unicode"
)

// OptimizeDelaySlots rewrites RISC assembly text, moving the instruction
// preceding a branch into the branch's delay slot when that is provably
// safe, and returns the rewritten text plus the number of slots filled.
// This is the paper's post-pass: RISC I relied on a simple reorganizer to
// make delayed jumps cheap instead of building branch prediction hardware.
//
// A candidate pattern is
//
//	<inst X>
//	<branch B>     (b, b<cond>, jmpr, jmp — never call/ret: their slots
//	nop             execute in the callee's/caller's register window)
//
// X may move when it is a single real instruction (no li/la pseudos, which
// can expand to two words), does not set the condition codes (the branch
// may read them), and does not write a register the branch reads.
func OptimizeDelaySlots(src string) (string, int) {
	var out strings.Builder
	out.Grow(len(src))
	first := true
	emit := func(line string) {
		if !first {
			out.WriteByte('\n')
		}
		out.WriteString(line)
		first = false
	}
	// x, b and n are the window of the next three lines, each cut once;
	// ok reports that the line is there.
	rest, more := src, true
	next := func() (string, bool) {
		if !more {
			return "", false
		}
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		return line, true
	}
	x, okx := next()
	b, okb := next()
	n, okn := next()
	filled := 0
	for okx {
		if okn && fillable(x, b, n) {
			// Swap X into the slot and drop the nop.
			emit(b)
			emit(x)
			filled++
			x, okx = next()
			b, okb = next()
			n, okn = next()
			continue
		}
		emit(x)
		x, okx = b, okb
		b, okb = n, okn
		n, okn = next()
	}
	return out.String(), filled
}

// fillable reports whether the instruction on line x may move into the
// delay slot of the branch on line b, which line n fills with a nop. It
// classifies comment-stripped text: the compiler stamps ";@line"
// attribution markers on its instructions, and those must neither defeat
// the pattern match nor confuse the register extraction. The swap moves the
// raw lines, so a marker travels with its instruction into the slot.
func fillable(x, b, n string) bool {
	if stripComment(n) != "nop" {
		return false
	}
	b = stripComment(b)
	if !isBranch(b) {
		return false
	}
	x = stripComment(x)
	return movable(x) && !writesAny(x, branchReads(b))
}

// stripComment drops a trailing ";" comment and surrounding space. The
// generator never emits ";" inside a quoted string on an instruction line,
// so a plain byte scan suffices here.
func stripComment(line string) string {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// mnemonicOf returns the first whitespace-separated field of a stripped
// line (strings.Fields(line)[0] without the slice).
func mnemonicOf(line string) string {
	if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
		return line[:i]
	}
	return line
}

// isBranch recognizes the transfers whose slots we fill.
func isBranch(line string) bool {
	m := mnemonicOf(line)
	if m == "jmpr" || m == "jmp" {
		return true
	}
	// b and b<cond>.
	if m == "b" {
		return true
	}
	if strings.HasPrefix(m, "b") {
		_, ok := condNamesSet[m[1:]]
		return ok
	}
	return false
}

var condNamesSet = func() map[string]struct{} {
	s := map[string]struct{}{}
	for _, n := range []string{"nev", "alw", "eq", "ne", "gt", "le", "ge",
		"lt", "hi", "los", "lo", "his", "pl", "mi", "nv", "v"} {
		s[n] = struct{}{}
	}
	return s
}()

// movable instructions: plain ALU ops, loads and stores that neither set
// flags nor expand to multiple words.
var movableOps = map[string]bool{
	"add": true, "sub": true, "and": true, "or": true, "xor": true,
	"sll": true, "srl": true, "sra": true, "mov": true,
	"ldl": true, "ldbu": true, "ldbs": true, "ldsu": true, "ldss": true,
	"stl": true, "stb": true, "sts": true, "ldhi": true,
}

func movable(line string) bool {
	m := mnemonicOf(line)
	if m == "" || strings.HasSuffix(m, ":") || strings.HasSuffix(m, "!") || strings.HasPrefix(m, ".") {
		return false
	}
	return movableOps[m]
}

// branchReads returns the registers a branch reads (for `jmp cond,(rx)s2`
// the base and a possible index register; relative branches read none).
func branchReads(line string) []string {
	if mnemonicOf(line) != "jmp" {
		return nil
	}
	var regs []string
	rest := strings.TrimSpace(strings.TrimPrefix(line, "jmp"))
	if i := strings.IndexByte(rest, ','); i >= 0 {
		rest = rest[i+1:]
	}
	// rest is like "(r3)#0" or "(r3)r4".
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "(") {
		if j := strings.IndexByte(rest, ')'); j > 1 {
			regs = append(regs, rest[1:j])
			tail := strings.TrimSpace(rest[j+1:])
			if strings.HasPrefix(tail, "r") {
				regs = append(regs, tail)
			}
		}
	}
	return regs
}

// writesAny reports whether instruction line writes any of regs.
func writesAny(line string, regs []string) bool {
	if len(regs) == 0 {
		return false
	}
	dst := destReg(line)
	if dst == "" {
		return false
	}
	for _, r := range regs {
		if r == dst {
			return true
		}
	}
	return false
}

// destReg extracts the destination register of a movable instruction
// (always the last comma-separated operand for ALU/loads; stores write
// memory only).
func destReg(line string) string {
	m := mnemonicOf(line)
	switch m {
	case "stl", "stb", "sts":
		return ""
	}
	i := strings.LastIndexByte(line, ',')
	if i < 0 {
		return ""
	}
	dst := strings.TrimSpace(line[i+1:])
	if strings.HasPrefix(dst, "r") {
		return dst
	}
	return ""
}
