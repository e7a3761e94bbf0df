package asm

import (
	"fmt"
	"strings"

	"risc1/internal/isa"
)

// realInst builds a protoInst for one of the 31 hardware instructions.
func (a *assembler) realInst(op isa.Op, scc bool, ops []operand) {
	p := protoInst{op: op, scc: scc}
	bad := func() {
		a.errorf("%s: bad operands", op)
	}
	switch op {
	case isa.OpJMP: // jmp cond,(rx)s2
		if len(ops) != 2 || !ops[0].isImm || !ops[0].imm.isNum() || !ops[1].isAddr {
			// Conditions arrive as bare identifiers; catch them here.
			if len(ops) == 2 && ops[1].isAddr {
				if c, ok := condOf(ops[0]); ok {
					p.cond, p.hasCond = c, true
					p.rs1, p.s2, p.useS2 = ops[1].base, ops[1].index, true
					a.addInst(p)
					return
				}
			}
			bad()
			return
		}
	case isa.OpJMPR: // jmpr cond,target
		if len(ops) != 2 || !ops[1].isImm {
			bad()
			return
		}
		c, ok := condOf(ops[0])
		if !ok {
			a.errorf("jmpr: bad condition")
			return
		}
		p.cond, p.hasCond = c, true
		p.s2.imm = ops[1].imm
		p.relative = !ops[1].imm.isNum() // labels are PC-relative; #n literal
		a.addInst(p)
		return
	case isa.OpCALL: // call rd,(rx)s2
		if len(ops) != 2 || !ops[0].isReg || !ops[1].isAddr {
			bad()
			return
		}
		p.rd = ops[0].reg
		p.rs1, p.s2, p.useS2 = ops[1].base, ops[1].index, true
		a.addInst(p)
		return
	case isa.OpCALLR: // callr rd,target
		if len(ops) != 2 || !ops[0].isReg || !ops[1].isImm {
			bad()
			return
		}
		p.rd = ops[0].reg
		p.s2.imm = ops[1].imm
		p.relative = !ops[1].imm.isNum()
		a.addInst(p)
		return
	case isa.OpRET, isa.OpRETINT: // ret rd,s2
		if len(ops) != 2 || !ops[0].isReg {
			bad()
			return
		}
		p.rd = ops[0].reg
		s2, ok := s2Of(ops[1])
		if !ok {
			bad()
			return
		}
		p.s2, p.useS2 = s2, true
		a.addInst(p)
		return
	case isa.OpCALLINT, isa.OpGTLPC, isa.OpGETPSW: // op rd
		if len(ops) != 1 || !ops[0].isReg {
			bad()
			return
		}
		p.rd = ops[0].reg
		a.addInst(p)
		return
	case isa.OpPUTPSW: // putpsw rs1,s2
		if len(ops) != 2 || !ops[0].isReg {
			bad()
			return
		}
		p.rs1 = ops[0].reg
		s2, ok := s2Of(ops[1])
		if !ok {
			bad()
			return
		}
		p.s2, p.useS2 = s2, true
		a.addInst(p)
		return
	case isa.OpLDHI: // ldhi rd,#imm19
		if len(ops) != 2 || !ops[0].isReg || !ops[1].isImm {
			bad()
			return
		}
		p.rd = ops[0].reg
		p.s2.imm = ops[1].imm
		a.addInst(p)
		return
	default:
		switch op.Cat() {
		case isa.CatLoad: // ldl (rx)s2,rd
			if len(ops) != 2 || !ops[0].isAddr || !ops[1].isReg {
				bad()
				return
			}
			p.rs1, p.s2, p.useS2 = ops[0].base, ops[0].index, true
			p.rd = ops[1].reg
			a.addInst(p)
			return
		case isa.CatStore: // stl rm,(rx)s2
			if len(ops) != 2 || !ops[0].isReg || !ops[1].isAddr {
				bad()
				return
			}
			p.rd = ops[0].reg
			p.rs1, p.s2, p.useS2 = ops[1].base, ops[1].index, true
			a.addInst(p)
			return
		case isa.CatALU: // add rs1,s2,rd
			if len(ops) != 3 || !ops[0].isReg || !ops[2].isReg {
				bad()
				return
			}
			p.rs1 = ops[0].reg
			s2, ok := s2Of(ops[1])
			if !ok {
				bad()
				return
			}
			p.s2, p.useS2 = s2, true
			p.rd = ops[2].reg
			a.addInst(p)
			return
		}
		bad()
		return
	}
	bad()
}

// condOf interprets an operand as a jump condition: conditions parse as
// symbolic immediates ("eq" has no # prefix).
func condOf(op operand) (isa.Cond, bool) {
	if !op.isImm || op.imm.isNum() || op.imm.off != 0 {
		return 0, false
	}
	return isa.CondByName(op.imm.sym)
}

func s2Of(op operand) (operand2, bool) {
	switch {
	case op.isReg:
		return operand2{isReg: true, reg: op.reg}, true
	case op.isImm:
		return operand2{imm: op.imm}, true
	}
	return operand2{}, false
}

// pseudo expands the assembler's convenience mnemonics.
func (a *assembler) pseudo(mnemonic string, scc bool, ops []operand) {
	switch mnemonic {
	case "nop":
		if len(ops) != 0 {
			a.errorf("nop takes no operands")
			return
		}
		a.addInst(protoInst{op: isa.OpADD, useS2: true})
		return
	case "mov": // mov rs,rd -> add rs,r0? No: or rs,r0,rd keeps flags simple
		if len(ops) != 2 || !ops[0].isReg || !ops[1].isReg {
			a.errorf("mov needs two registers")
			return
		}
		a.addInst(protoInst{op: isa.OpADD, scc: scc,
			rs1: ops[0].reg, useS2: true, rd: ops[1].reg})
		return
	case "cmp": // cmp rs1,s2 -> sub! rs1,s2,r0
		if len(ops) != 2 || !ops[0].isReg {
			a.errorf("cmp needs register, s2")
			return
		}
		s2, ok := s2Of(ops[1])
		if !ok {
			a.errorf("cmp: bad second operand")
			return
		}
		a.addInst(protoInst{op: isa.OpSUB, scc: true,
			rs1: ops[0].reg, s2: s2, useS2: true})
		return
	case "li", "la": // li #value,rd / la symbol,rd
		if len(ops) != 2 || !ops[0].isImm || !ops[1].isReg {
			a.errorf("%s needs value, register", mnemonic)
			return
		}
		v, rd := ops[0].imm, ops[1].reg
		if v.isNum() && v.off >= isa.MinImm13 && v.off <= isa.MaxImm13 {
			a.addInst(protoInst{op: isa.OpADD, scc: scc,
				s2: operand2{imm: v}, useS2: true, rd: rd})
			return
		}
		// Two-instruction form: ldhi rd,#hi ; add rd,#lo,rd.
		a.addInst(protoInst{op: isa.OpLDHI, rd: rd, s2: operand2{imm: v}, hiPart: true})
		a.addInst(protoInst{op: isa.OpADD, scc: scc, rs1: rd,
			s2: operand2{imm: v}, useS2: true, rd: rd, loPart: true})
		return
	}
	// b / b<cond> label: PC-relative conditional branches.
	if mnemonic == "b" || strings.HasPrefix(mnemonic, "b") {
		cond := isa.CondALW
		if mnemonic != "b" {
			c, ok := isa.CondByName(mnemonic[1:])
			if !ok {
				a.errorf("unknown mnemonic %q", mnemonic)
				return
			}
			cond = c
		}
		if len(ops) != 1 || !ops[0].isImm {
			a.errorf("%s needs a target", mnemonic)
			return
		}
		a.addInst(protoInst{op: isa.OpJMPR, cond: cond, hasCond: true,
			s2: operand2{imm: ops[0].imm}, relative: !ops[0].imm.isNum()})
		return
	}
	a.errorf("unknown mnemonic %q", mnemonic)
}

// directive handles dot-directives.
func (a *assembler) directive(name, rest string) {
	switch name {
	case ".org":
		v, err := parseInt(rest)
		if err != nil || v < 0 {
			a.errorf(".org: bad address %q", rest)
			return
		}
		if a.orgSet {
			a.errorf(".org may appear only once")
			return
		}
		if len(a.items) > 0 {
			a.errorf(".org must precede all code and data")
			return
		}
		a.org, a.orgSet = uint32(v), true
		a.pc = uint32(v)
	case ".entry":
		a.entry = strings.TrimSpace(rest)
		a.entryLine = a.line
		if !isIdent(a.entry) {
			a.errorf(".entry: bad symbol %q", rest)
		}
	case ".equ":
		parts, _ := splitCommas(nil, rest)
		if len(parts) != 2 || !isIdent(strings.TrimSpace(parts[0])) {
			a.errorf(".equ needs name, value")
			return
		}
		v, err := parseInt(parts[1])
		if err != nil {
			a.errorf(".equ: bad value %q", parts[1])
			return
		}
		name := strings.TrimSpace(parts[0])
		if _, dup := a.equs[name]; dup {
			a.errorf(".equ %q redefined", name)
			return
		}
		a.equs[name] = v
	case ".word":
		parts, _ := splitCommas(nil, rest)
		var words []expr
		for _, p := range parts {
			e, err := a.parseExpr(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(p), "#")))
			if err != nil {
				a.errorf(".word: %v", err)
				return
			}
			words = append(words, e)
		}
		a.add(item{data: &itemData{words: words}})
	case ".half", ".byte":
		size := 2
		if name == ".byte" {
			size = 1
		}
		parts, _ := splitCommas(nil, rest)
		var data []byte
		for _, p := range parts {
			e, err := a.parseExpr(strings.TrimSpace(p))
			if err != nil || !e.isNum() {
				a.errorf("%s: bad value %q", name, p)
				return
			}
			v := uint64(e.off)
			if size == 2 {
				data = append(data, byte(v>>8), byte(v))
			} else {
				data = append(data, byte(v))
			}
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
		v, err := parseInt(rest)
		if err != nil || v < 0 || v > 1<<24 {
			a.errorf(".space: bad size %q", rest)
			return
		}
		a.add(item{space: uint32(v)})
	case ".align":
		v, err := parseInt(rest)
		if err != nil || v <= 0 || (v&(v-1)) != 0 {
			a.errorf(".align: need a power of two, got %q", rest)
			return
		}
		pad := (uint32(v) - a.pc%uint32(v)) % uint32(v)
		if pad > 0 {
			a.add(item{space: pad})
		}
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
