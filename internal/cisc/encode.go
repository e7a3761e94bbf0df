package cisc

import (
	"fmt"
	"strings"
)

// directive handles the CX assembler's dot-directives (a subset shared with
// the RISC assembler, plus .mask for CALLS register-save masks).
func (a *casm) directive(name, rest string) {
	switch name {
	case ".org":
		v, err := parseNum(rest)
		if err != nil || v < 0 {
			a.errorf(".org: bad address %q", rest)
			return
		}
		if a.orgSet || len(a.items) > 0 {
			a.errorf(".org must appear once, before code")
			return
		}
		a.org, a.orgSet = uint32(v), true
		a.pc = uint32(v)
	case ".entry":
		a.entry = strings.TrimSpace(rest)
		if !isIdent(a.entry) {
			a.errorf(".entry: bad symbol %q", rest)
		}
	case ".equ":
		parts := splitTop(nil, rest)
		if len(parts) != 2 || !isIdent(strings.TrimSpace(parts[0])) {
			a.errorf(".equ needs name, value")
			return
		}
		v, err := parseNum(strings.TrimSpace(parts[1]))
		if err != nil {
			a.errorf(".equ: bad value")
			return
		}
		a.equs[strings.TrimSpace(parts[0])] = v
	case ".word":
		var words []expr
		for _, p := range splitTop(nil, rest) {
			e, err := a.parseExpr(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(p), "#")))
			if err != nil {
				a.errorf(".word: %v", err)
				return
			}
			words = append(words, e)
		}
		a.add(item{data: &itemData{words: words}})
	case ".byte":
		var data []byte
		for _, p := range splitTop(nil, rest) {
			e, err := a.parseExpr(strings.TrimSpace(p))
			if err != nil || !e.isNum() {
				a.errorf(".byte: bad value %q", p)
				return
			}
			data = append(data, byte(e.off))
		}
		a.add(item{data: &itemData{bytes: data}})
	case ".ascii", ".asciz":
		s, err := stringLit(strings.TrimSpace(rest))
		if err != nil {
			a.errorf("%s: %v", name, err)
			return
		}
		data := []byte(s)
		if name == ".asciz" {
			data = append(data, 0)
		}
		a.add(item{data: &itemData{bytes: data}})
	case ".space":
		v, err := parseNum(rest)
		if err != nil || v < 0 || v > 1<<24 {
			a.errorf(".space: bad size %q", rest)
			return
		}
		a.add(item{space: uint32(v)})
	case ".align":
		v, err := parseNum(rest)
		if err != nil || v <= 0 || v&(v-1) != 0 {
			a.errorf(".align: need a power of two")
			return
		}
		if pad := (uint32(v) - a.pc%uint32(v)) % uint32(v); pad > 0 {
			a.add(item{space: pad})
		}
	case ".mask":
		// Register-save mask at a procedure entry: 2 bytes, bit n set
		// for each rN the procedure preserves. ".mask" alone saves none.
		var mask uint16
		if strings.TrimSpace(rest) != "" {
			for _, p := range splitTop(nil, rest) {
				r, ok := regName(strings.TrimSpace(p))
				if !ok || r >= 12 {
					a.errorf(".mask: bad register %q (r0..r11 only)", p)
					return
				}
				mask |= 1 << r
			}
		}
		a.add(item{data: &itemData{bytes: []byte{byte(mask >> 8), byte(mask)}}})
	default:
		a.errorf("unknown directive %q", name)
	}
}

func stringLit(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("trailing backslash")
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case '0':
			b.WriteByte(0)
		case '\\', '"':
			b.WriteByte(body[i])
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return b.String(), nil
}

// ---------- pass 2 ----------

func (a *casm) resolve(e expr, line int) (uint32, error) {
	if e.isNum() {
		return uint32(e.off), nil
	}
	v, ok := a.symbols[e.sym]
	if !ok {
		return 0, &AsmError{Line: line, Msg: fmt.Sprintf("undefined symbol %q", e.sym)}
	}
	return v + uint32(e.off), nil
}

func (a *casm) encode() (*Image, error) {
	img := &Image{Org: a.org, Bytes: make([]byte, a.pc-a.org), Symbols: a.symbols}
	for i := range a.items {
		it := &a.items[i]
		buf := img.Bytes[it.addr-a.org:]
		switch {
		case it.isInst:
			if err := a.encodeInst(it, buf); err != nil {
				return nil, err
			}
		case it.data != nil:
			for i, e := range it.data.words {
				v, err := a.resolve(e, int(it.line))
				if err != nil {
					return nil, err
				}
				be32(buf[4*i:], v)
			}
			copy(buf, it.data.bytes)
		}
	}
	img.Entry = a.org
	if a.entry != "" {
		v, ok := a.symbols[a.entry]
		if !ok {
			return nil, &AsmError{Msg: fmt.Sprintf(".entry symbol %q undefined", a.entry)}
		}
		img.Entry = v
	} else if v, ok := a.symbols["main"]; ok {
		img.Entry = v
	} else if v, ok := a.symbols["start"]; ok {
		img.Entry = v
	}
	return img, nil
}

func (a *casm) encodeInst(it *item, buf []byte) error {
	n := 0
	buf[n] = byte(it.op)
	n++
	info := opTable[it.op]
	for pos, kind := range info.operands {
		switch kind {
		case opdDisp:
			target, err := a.resolve(it.disp, int(it.line))
			if err != nil {
				return err
			}
			// Displacement is relative to the next instruction; branch
			// instructions are always exactly 3 bytes.
			next := it.addr + 3
			delta := int64(int32(target)) - int64(int32(next))
			if delta < -32768 || delta > 32767 {
				return &AsmError{Line: int(it.line),
					Msg: fmt.Sprintf("branch target out of 16-bit range: %d", delta)}
			}
			buf[n] = byte(uint16(delta) >> 8)
			buf[n+1] = byte(uint16(delta))
			n += 2
		case opdCount:
			buf[n] = byte(it.count)
			n++
		default:
			s := it.specs[specIndex(info, pos)]
			buf[n] = byte(s.mode)<<4 | s.reg&0xF
			n++
			switch s.mode {
			case modeReg, modeDeref:
			case modeIndex, modeIndexB:
				buf[n] = s.index
				n++
			case modeDisp8, modeImm8:
				v, err := a.resolve(s.ext, int(it.line))
				if err != nil {
					return err
				}
				buf[n] = byte(v)
				n++
			default: // disp32, imm32, abs
				v, err := a.resolve(s.ext, int(it.line))
				if err != nil {
					return err
				}
				be32(buf[n:], v)
				n += 4
			}
		}
	}
	return nil
}

func be32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
