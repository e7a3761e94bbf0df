package cisc

import (
	"fmt"
	"sort"
	"strings"
)

// Disassemble renders a CX image as assembly with addresses. Decoding a
// variable-length stream needs to know where procedures start (their first
// two bytes are a register-save mask, not an opcode); entries are
// discovered iteratively from the image entry point and the targets of
// decoded CALLS instructions. Undecodable bytes print as .byte directives.
func Disassemble(img *Image) string {
	// Invert the symbol table for labels, sorting the names that share an
	// address so the listing is the same on every call.
	labels := map[uint32][]string{}
	for name, addr := range img.Symbols {
		labels[addr] = append(labels[addr], name)
	}
	for _, names := range labels {
		sort.Strings(names)
	}
	starts := map[uint32]bool{img.Entry: true}
	var out string
	for pass := 0; pass < 3; pass++ {
		text, targets := decodeImage(img, labels, starts)
		out = text
		grew := false
		for t := range targets {
			if !starts[t] {
				starts[t] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	return out
}

// decodeImage renders one decoding pass and collects CALLS target addresses.
func decodeImage(img *Image, labels map[uint32][]string, starts map[uint32]bool) (string, map[uint32]bool) {
	targets := map[uint32]bool{}
	var b strings.Builder
	pos := 0
	for pos < len(img.Bytes) {
		addr := img.Org + uint32(pos)
		for _, l := range labels[addr] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		if starts[addr] && pos+2 <= len(img.Bytes) {
			mask := uint16(img.Bytes[pos])<<8 | uint16(img.Bytes[pos+1])
			fmt.Fprintf(&b, "  %08x:  %-18s %s\n", addr, hexBytes(img.Bytes[pos:pos+2]), maskString(mask))
			pos += 2
			continue
		}
		text, size := decodeAt(img.Bytes, pos, addr)
		if Op(img.Bytes[pos]) == OpCALLS && size > 3 {
			// calls #n, @addr: collect the absolute target.
			spec := img.Bytes[pos+2]
			if addrMode(spec>>4) == modeAbs && pos+7 <= len(img.Bytes) {
				t := uint32(img.Bytes[pos+3])<<24 | uint32(img.Bytes[pos+4])<<16 |
					uint32(img.Bytes[pos+5])<<8 | uint32(img.Bytes[pos+6])
				if t >= img.Org && t < img.Org+uint32(len(img.Bytes)) {
					targets[t] = true
				}
			}
		}
		fmt.Fprintf(&b, "  %08x:  %-18s %s\n", addr, hexBytes(img.Bytes[pos:pos+size]), text)
		pos += size
	}
	return b.String(), targets
}

func hexBytes(bs []byte) string {
	var b strings.Builder
	for _, x := range bs {
		fmt.Fprintf(&b, "%02x", x)
	}
	return b.String()
}

func maskString(mask uint16) string {
	var regs []string
	for r := 0; r < 12; r++ {
		if mask&(1<<r) != 0 {
			regs = append(regs, fmt.Sprintf("r%d", r))
		}
	}
	return ".mask " + strings.Join(regs, ", ")
}

// decodeAt decodes one instruction, returning its text and byte size;
// undecodable positions yield a one-byte .byte line.
func decodeAt(code []byte, pos int, addr uint32) (string, int) {
	op := Op(code[pos])
	info, ok := opTable[op]
	if !ok {
		return fmt.Sprintf(".byte %#02x", code[pos]), 1
	}
	n := pos + 1
	var operands []string
	for _, kind := range info.operands {
		switch kind {
		case opdDisp:
			if n+2 > len(code) {
				return fmt.Sprintf(".byte %#02x", code[pos]), 1
			}
			d := int16(uint16(code[n])<<8 | uint16(code[n+1]))
			target := addr + uint32(n-pos) + 2 + uint32(int32(d))
			operands = append(operands, fmt.Sprintf("%#x", target))
			n += 2
		case opdCount:
			if n >= len(code) {
				return fmt.Sprintf(".byte %#02x", code[pos]), 1
			}
			operands = append(operands, fmt.Sprintf("#%d", code[n]))
			n++
		default:
			text, size := decodeSpecAt(code, n)
			if size == 0 {
				return fmt.Sprintf(".byte %#02x", code[pos]), 1
			}
			operands = append(operands, text)
			n += size
		}
	}
	return strings.TrimSpace(op.Name() + " " + strings.Join(operands, ", ")), n - pos
}

func decodeSpecAt(code []byte, pos int) (string, int) {
	if pos >= len(code) {
		return "", 0
	}
	b := code[pos]
	mode := addrMode(b >> 4)
	reg := b & 0xF
	size := specSize(mode)
	if size == 0 || pos+size > len(code) {
		return "", 0
	}
	regName := func(r uint8) string {
		switch r {
		case AP:
			return "ap"
		case FP:
			return "fp"
		case SP:
			return "sp"
		}
		return fmt.Sprintf("r%d", r)
	}
	ext32 := func() uint32 {
		return uint32(code[pos+1])<<24 | uint32(code[pos+2])<<16 |
			uint32(code[pos+3])<<8 | uint32(code[pos+4])
	}
	switch mode {
	case modeReg:
		return regName(reg), size
	case modeDeref:
		return "(" + regName(reg) + ")", size
	case modeDisp8:
		return fmt.Sprintf("%d(%s)", int8(code[pos+1]), regName(reg)), size
	case modeDisp32:
		return fmt.Sprintf("%d(%s)", int32(ext32()), regName(reg)), size
	case modeImm8:
		return fmt.Sprintf("#%d", int8(code[pos+1])), size
	case modeImm32:
		return fmt.Sprintf("#%d", int32(ext32())), size
	case modeAbs:
		return fmt.Sprintf("@%#x", ext32()), size
	case modeIndex:
		return fmt.Sprintf("(%s)[%s]", regName(reg), regName(code[pos+1]&0xF)), size
	case modeIndexB:
		return fmt.Sprintf("(%s)[%s.b]", regName(reg), regName(code[pos+1]&0xF)), size
	}
	return "", 0
}
