package asm

import (
	"fmt"
	"sort"
	"strings"

	"risc1/internal/isa"
)

// ---------- pass 2: resolve symbols and encode ----------

func (a *assembler) resolve(e expr, line int) (uint32, *Error) {
	if e.isNum() {
		return uint32(e.off), nil
	}
	base, ok := a.symbols[e.sym]
	if !ok {
		return 0, &Error{Line: line, Msg: fmt.Sprintf("undefined symbol %q", e.sym)}
	}
	return base + uint32(e.off), nil
}

// splitHiLo decomposes a 32-bit value into the (ldhi, add) immediate pair
// such that (hi << 13) + signExtend13(lo) == v (mod 2^32).
func splitHiLo(v uint32) (hi int32, lo int32) {
	lo13 := v & 0x1FFF
	lo = int32(lo13)
	if lo13&0x1000 != 0 {
		lo = int32(lo13) - 0x2000
	}
	hiPattern := (v - uint32(lo)) >> 13 // 19 significant bits
	hi = int32(hiPattern<<13) >> 13     // sign-extend to satisfy the encoder
	return hi, lo
}

func (a *assembler) encode() (*Image, error) {
	size := a.pc - a.org
	img := &Image{Org: a.org, Bytes: make([]byte, size), Symbols: a.symbols,
		Lines: make([]LineSpan, 0, len(a.items))}
	var errs ErrorList
	for i := range a.items {
		it := &a.items[i]
		off := it.addr - a.org
		if size := itemSize(it); size > 0 {
			ln := it.line
			if it.srcLine > 0 {
				ln = it.srcLine
			}
			img.Lines = append(img.Lines, LineSpan{Addr: it.addr, Size: size, Line: int(ln)})
		}
		switch {
		case it.inst.isInst:
			w, err := a.encodeInst(it)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			putWord(img.Bytes[off:], w)
		case it.data != nil:
			for i, e := range it.data.words {
				v, err := a.resolve(e, int(it.line))
				if err != nil {
					errs = append(errs, err)
					continue
				}
				putWord(img.Bytes[off+uint32(4*i):], v)
			}
			copy(img.Bytes[off:], it.data.bytes)
		}
	}
	if len(errs) > 0 {
		return nil, errs
	}

	img.Entry = a.org
	if a.entry != "" {
		v, ok := a.symbols[a.entry]
		if !ok {
			return nil, &Error{Line: a.entryLine, Msg: fmt.Sprintf(".entry symbol %q undefined", a.entry)}
		}
		img.Entry = v
	} else if v, ok := a.symbols["main"]; ok {
		img.Entry = v
	} else if v, ok := a.symbols["start"]; ok {
		img.Entry = v
	}
	return img, nil
}

func (a *assembler) encodeInst(it *item) (uint32, *Error) {
	line := int(it.line)
	p := &it.inst
	inst := isa.Inst{Op: p.op, SCC: p.scc, Rd: p.rd, Rs1: p.rs1}
	if p.hasCond {
		inst.Rd = uint8(p.cond)
	}
	switch {
	case p.op.Long():
		v, err := a.resolve(p.s2.imm, line)
		if err != nil {
			return 0, err
		}
		switch {
		case p.hiPart:
			hi, _ := splitHiLo(v)
			inst.Imm19 = hi
		case p.relative:
			delta := int64(int32(v)) - int64(int32(it.addr))
			if delta < isa.MinImm19 || delta > isa.MaxImm19 {
				return 0, &Error{Line: line, OutOfRange: true, Msg: fmt.Sprintf(
					"relative target out of range: %d bytes", delta)}
			}
			inst.Imm19 = int32(delta)
		default:
			iv := int64(int32(v))
			if p.s2.imm.isNum() {
				iv = p.s2.imm.off
			}
			if iv < isa.MinImm19 || iv > isa.MaxImm19 {
				return 0, &Error{Line: line, OutOfRange: true, Msg: fmt.Sprintf(
					"immediate %d outside 19-bit range", iv)}
			}
			inst.Imm19 = int32(iv)
		}
	case p.useS2:
		if p.s2.isReg {
			inst.Rs2 = p.s2.reg
		} else {
			inst.Imm = true
			v, err := a.resolve(p.s2.imm, line)
			if err != nil {
				return 0, err
			}
			iv := int64(int32(v))
			if p.s2.imm.isNum() {
				iv = p.s2.imm.off
			}
			if p.loPart {
				_, lo := splitHiLo(v)
				iv = int64(lo)
			}
			if iv < isa.MinImm13 || iv > isa.MaxImm13 {
				return 0, &Error{Line: line, OutOfRange: true, Msg: fmt.Sprintf(
					"immediate %d outside 13-bit range", iv)}
			}
			inst.Imm13 = int32(iv)
		}
	}
	if err := inst.Check(); err != nil {
		return 0, &Error{Line: line, Msg: err.Error()}
	}
	return inst.Encode(), nil
}

// itemSize returns how many image bytes one parsed item occupies.
func itemSize(it *item) uint32 {
	switch {
	case it.inst.isInst:
		return isa.InstBytes
	case it.data != nil:
		return uint32(4*len(it.data.words) + len(it.data.bytes))
	default:
		return it.space
	}
}

func putWord(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// Disassemble renders an image's words as assembly with addresses, for
// riscdis and debugging. Data is shown as .word directives.
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
	var b strings.Builder
	for off := 0; off+4 <= len(img.Bytes); off += 4 {
		addr := img.Org + uint32(off)
		for _, l := range labels[addr] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		w := uint32(img.Bytes[off])<<24 | uint32(img.Bytes[off+1])<<16 |
			uint32(img.Bytes[off+2])<<8 | uint32(img.Bytes[off+3])
		fmt.Fprintf(&b, "  %08x:  %08x  %s\n", addr, w, isa.DisasmWord(w))
	}
	return b.String()
}
