package cc

import (
	"fmt"
	"strconv"
	"strings"
)

// Expression generation for the CX back end.

// genOperand produces an operand specifier for e without necessarily using
// a temporary: literals, register locals, frame scalars and global int
// scalars are referenced directly (that is the CISC density story). Other
// expressions evaluate into a temp whose handle is returned for popping.
func (g *ciscGen) genOperand(e Expr) (string, tref, error) {
	switch x := e.(type) {
	case *IntLit:
		return immText(int64(int32(x.Val))), -1, nil
	case *VarRef:
		v := x.Decl
		if v.Type.Kind == TypeInt || v.Type.Kind == TypePtr {
			if r, ok := g.localReg[v]; ok {
				return regNames[r], -1, nil
			}
			if off, ok := g.localOff[v]; ok {
				return scalarSpec(off), -1, nil
			}
			if v.IsGlobal {
				return "@" + globalLabel(v), -1, nil
			}
		}
	}
	t, err := g.genExpr(e)
	if err != nil {
		return "", -1, err
	}
	return g.spec(t), t, nil
}

func (g *ciscGen) genExpr(e Expr) (tref, error) {
	switch x := e.(type) {
	case *IntLit:
		t := g.pushTemp()
		g.emit("movl #%d, %s", int32(x.Val), g.spec(t))
		return t, nil

	case *StrLit:
		t := g.pushTemp()
		g.emit("moval Lstr%d, %s", x.Index, g.spec(t))
		return t, nil

	case *VarRef:
		v := x.Decl
		t := g.pushTemp()
		switch {
		case v.Type.Kind == TypeArray:
			if v.IsGlobal {
				g.emit("moval %s, %s", globalLabel(v), g.spec(t))
			} else {
				off := g.localOff[v]
				g.emit("moval -%d(fp), %s", off+v.Type.Size(), g.spec(t))
			}
		case v.Type.Kind == TypeChar:
			g.emit("movzbl %s, %s", g.charVarSpec(v), g.spec(t))
		default:
			if r, ok := g.localReg[v]; ok {
				g.emit("movl r%d, %s", r, g.spec(t))
			} else if off, ok := g.localOff[v]; ok {
				g.emit("movl %s, %s", scalarSpec(off), g.spec(t))
			} else {
				g.emit("movl @%s, %s", globalLabel(v), g.spec(t))
			}
		}
		return t, nil

	case *Unary:
		return g.genUnary(x)

	case *Index:
		spec, temps, err := g.genMem(x)
		if err != nil {
			return -1, err
		}
		t := g.pushTemp()
		if x.TypeOf().Size() == 1 {
			g.emit("movzbl %s, %s", spec, g.spec(t))
		} else {
			g.emit("movl %s, %s", spec, g.spec(t))
		}
		// Move the result below the address temps, then pop them.
		return g.sinkResult(t, temps)

	case *Binary:
		return g.genBinary(x)

	case *Logic, *Cond:
		return g.genValueViaBranches(e)

	case *Assign:
		return g.genStoreVal(x.X, x.Y, true)

	case *IncDec:
		return g.genIncDec(x)

	case *Call:
		return g.genCall(x)
	}
	return -1, errorAt(0, "cisc: unknown expression %T", e)
}

// charVarSpec returns the byte-sized operand for a char variable. Register
// chars read the register (low byte semantics via movzbl source is wrong for
// registers — movzbl of a register reads its low byte, which is exactly the
// stored char since stores truncate).
func (g *ciscGen) charVarSpec(v *VarDecl) string {
	if r, ok := g.localReg[v]; ok {
		return regNames[r]
	}
	if off, ok := g.localOff[v]; ok {
		// chars in the frame occupy the low byte of their word: the
		// word address is the big-endian MSB, so the byte sits at +3.
		return specf("-%d(fp)", off+1)
	}
	return "@" + globalLabel(v)
}

// sinkResult moves the result temp t below the given (still-live) address
// temps so the stack discipline holds, popping the address temps.
func (g *ciscGen) sinkResult(t tref, temps []tref) (tref, error) {
	if len(temps) == 0 {
		return t, nil
	}
	bottom := temps[0]
	if g.spec(t) != g.spec(bottom) {
		g.emit("movl %s, %s", g.spec(t), g.spec(bottom))
	}
	g.pop(t)
	for i := len(temps) - 1; i >= 1; i-- {
		g.pop(temps[i])
	}
	return bottom, nil
}

// genMem builds a memory operand specifier for an Index or deref lvalue,
// returning the live temps that back it (in push order).
func (g *ciscGen) genMem(lv Expr) (string, []tref, error) {
	switch x := lv.(type) {
	case *Index:
		base, err := g.genExpr(x.Arr)
		if err != nil {
			return "", nil, err
		}
		size := x.TypeOf().Size()
		// Constant index: displacement addressing off the base register.
		if lit, ok := x.Idx.(*IntLit); ok {
			off := lit.Val * int64(size)
			if off == 0 {
				return specf("(r%d)", g.reg(base)), []tref{base}, nil
			}
			return specf("%d(r%d)", off, g.reg(base)), []tref{base}, nil
		}
		// Register index: use scaled indexed addressing.
		rb := g.reg(base)
		if v, ok := x.Idx.(*VarRef); ok {
			if r, inReg := g.localReg[v.Decl]; inReg && v.Decl.Type.Kind == TypeInt {
				return indexedSpec(rb, r, size), []tref{base}, nil
			}
		}
		idx, err := g.genExpr(x.Idx)
		if err != nil {
			return "", nil, err
		}
		return indexedSpec(g.reg(base), g.reg(idx), size), []tref{base, idx}, nil

	case *Unary:
		if x.Op == "*" {
			t, err := g.genExpr(x.X)
			if err != nil {
				return "", nil, err
			}
			return specf("(r%d)", g.reg(t)), []tref{t}, nil
		}
	}
	return "", nil, errorAt(0, "cisc: not a memory lvalue: %T", lv)
}

func indexedSpec(base, idx, size int) string {
	if size == 1 {
		return specf("(r%d)[r%d.b]", base, idx)
	}
	return specf("(r%d)[r%d]", base, idx)
}

func (g *ciscGen) genStoreVal(lv, rhs Expr, wantValue bool) (tref, error) {
	// Register and direct-memory scalars take the RHS operand directly.
	if x, ok := lv.(*VarRef); ok {
		v := x.Decl
		dst := ""
		if r, ok := g.localReg[v]; ok {
			dst = regNames[r]
		} else if off, ok := g.localOff[v]; ok {
			dst = scalarSpec(off)
		} else if v.IsGlobal && v.Type.IsScalar() {
			dst = "@" + globalLabel(v)
		}
		if dst != "" {
			src, t, err := g.genOperand(rhs)
			if err != nil {
				return -1, err
			}
			if t >= 0 {
				src = g.spec(t)
			}
			if v.Type.Kind == TypeChar {
				if _, inReg := g.localReg[v]; inReg {
					g.emit("movzbl %s, %s", byteOf(src), dst)
				} else {
					g.emit("movb %s, %s", byteOf(src), g.charVarSpec(v))
				}
			} else {
				g.emit("movl %s, %s", src, dst)
			}
			if wantValue {
				if t < 0 {
					t, err = g.genExpr(rhs)
					if err != nil {
						return -1, err
					}
				}
				return t, nil
			}
			if t >= 0 {
				g.pop(t)
			}
			return -1, nil
		}
	}

	// General memory lvalue: evaluate RHS first (into a temp or direct
	// operand), then build the memory specifier.
	vt, err := g.genExpr(rhs)
	if err != nil {
		return -1, err
	}
	spec, temps, err := g.genMem(lv)
	if err != nil {
		return -1, err
	}
	size := lvSize(lv)
	if size == 1 {
		g.emit("movb %s, %s", byteOf(g.spec(vt)), spec)
	} else {
		g.emit("movl %s, %s", g.spec(vt), spec)
	}
	for i := len(temps) - 1; i >= 0; i-- {
		g.pop(temps[i])
	}
	if wantValue {
		return vt, nil
	}
	g.pop(vt)
	return -1, nil
}

func lvSize(lv Expr) int { return lv.TypeOf().Size() }

// byteOf adapts a longword operand spec to a byte access. Registers read
// their low byte directly; frame/absolute references must address the low
// (big-endian: last) byte — but since RHS temps are registers or slot words
// holding small values, adjusting is only needed for slot words.
func byteOf(spec string) string {
	if strings.HasPrefix(spec, "r") || strings.HasPrefix(spec, "#") {
		return spec
	}
	// -N(fp) slot word: its low byte lives at -N+3.
	if strings.HasSuffix(spec, "(fp)") && strings.HasPrefix(spec, "-") {
		n, _ := strconv.Atoi(spec[1 : len(spec)-len("(fp)")])
		return specf("-%d(fp)", n-3)
	}
	return spec
}

func (g *ciscGen) genUnary(x *Unary) (tref, error) {
	switch x.Op {
	case "-":
		src, t, err := g.genOperand(x.X)
		if err != nil {
			return -1, err
		}
		if t < 0 {
			t = g.pushTemp()
			g.emit("subl3 #0, %s, %s", src, g.spec(t))
		} else {
			g.emit("subl3 #0, %s, %s", g.spec(t), g.spec(t))
		}
		return t, nil
	case "~":
		src, t, err := g.genOperand(x.X)
		if err != nil {
			return -1, err
		}
		if t < 0 {
			t = g.pushTemp()
		}
		g.emit("xorl3 #-1, %s, %s", src, g.spec(t))
		return t, nil
	case "!":
		return g.genValueViaBranches(x)
	case "*":
		spec, temps, err := g.genMem(x)
		if err != nil {
			return -1, err
		}
		t := g.pushTemp()
		if x.TypeOf().Size() == 1 {
			g.emit("movzbl %s, %s", spec, g.spec(t))
		} else {
			g.emit("movl %s, %s", spec, g.spec(t))
		}
		return g.sinkResult(t, temps)
	case "&", "decay":
		return g.genAddr(x.X)
	}
	return -1, errorAt(0, "cisc: unknown unary %q", x.Op)
}

// genAddr produces the byte address of an lvalue or array in a temp.
func (g *ciscGen) genAddr(e Expr) (tref, error) {
	switch x := e.(type) {
	case *VarRef:
		v := x.Decl
		t := g.pushTemp()
		switch {
		case v.IsGlobal:
			g.emit("moval %s, %s", globalLabel(v), g.spec(t))
		default:
			off, ok := g.localOff[v]
			if !ok {
				return -1, errorAt(v.Line, "cisc: address of register variable %s", v.Name)
			}
			size := v.Type.Size()
			if v.Type.IsScalar() {
				g.emit("moval %s, %s", scalarSpec(off), g.spec(t))
			} else {
				g.emit("moval -%d(fp), %s", off+size, g.spec(t))
			}
		}
		return t, nil
	case *StrLit:
		t := g.pushTemp()
		g.emit("moval Lstr%d, %s", x.Index, g.spec(t))
		return t, nil
	case *Unary:
		if x.Op == "*" || x.Op == "decay" {
			if x.Op == "decay" {
				return g.genAddr(x.X)
			}
			return g.genExpr(x.X)
		}
	case *Index:
		spec, temps, err := g.genMem(x)
		if err != nil {
			return -1, err
		}
		t := g.pushTemp()
		g.emit("moval %s, %s", spec, g.spec(t))
		return g.sinkResult(t, temps)
	}
	return -1, errorAt(0, "cisc: cannot take the address of %T", e)
}

var cxALUOp = map[string]string{
	"+": "addl3", "-": "subl3", "*": "mull3", "/": "divl3",
	"&": "andl3", "|": "orl3", "^": "xorl3",
}

func (g *ciscGen) genBinary(b *Binary) (tref, error) {
	if _, isCmp := cxCondName[b.Op]; isCmp {
		return g.genValueViaBranches(b)
	}
	// Strength-reduce multiply/divide by powers of two, as contemporary
	// CISC compilers did (MULL is 16 microcycles, DIVL 40).
	if lit, ok := b.Y.(*IntLit); ok {
		if sh := log2(lit.Val); sh >= 0 && (b.Op == "*" || b.Op == "/") {
			if sh == 0 {
				return g.genExpr(b.X)
			}
			if b.Op == "*" {
				sx, tx, err := g.genOperand(b.X)
				if err != nil {
					return -1, err
				}
				if tx < 0 {
					tx = g.pushTemp()
				} else {
					sx = g.spec(tx)
				}
				g.emit("ashl #%d, %s, %s", sh, sx, g.spec(tx))
				return tx, nil
			}
			// Truncating /2^sh: bias negative dividends before the
			// arithmetic shift.
			t, err := g.genExpr(b.X)
			if err != nil {
				return -1, err
			}
			pos := g.newLabel("divp")
			g.emit("tstl %s", g.spec(t))
			g.emit("bge %s", pos)
			g.emit("addl2 #%d, %s", (1<<sh)-1, g.spec(t))
			g.label(pos)
			g.emit("ashl #%d, %s, %s", -sh, g.spec(t), g.spec(t))
			return t, nil
		}
	}
	if b.Op == "%" {
		return g.genMod(b)
	}
	if b.Op == "<<" || b.Op == ">>" {
		return g.genShift(b)
	}

	sx, tx, err := g.genOperand(b.X)
	if err != nil {
		return -1, err
	}
	sy, ty, err := g.genOperand(b.Y)
	if err != nil {
		return -1, err
	}
	if tx >= 0 {
		sx = g.spec(tx)
	}
	// Pointer arithmetic: scale the integer operand.
	if b.Scale > 1 {
		if ty < 0 {
			ty, err = g.genExpr(b.Y)
			if err != nil {
				return -1, err
			}
		}
		g.emit("ashl #2, %s, %s", g.spec(ty), g.spec(ty))
		sy = g.spec(ty)
	} else if ty >= 0 {
		sy = g.spec(ty)
	}

	dst := tx
	switch {
	case tx >= 0 && ty >= 0:
		g.emit("%s %s, %s, %s", cxALUOp[b.Op], sx, sy, g.spec(tx))
		g.pop(ty)
	case tx >= 0:
		g.emit("%s %s, %s, %s", cxALUOp[b.Op], sx, sy, g.spec(tx))
	case ty >= 0:
		g.emit("%s %s, %s, %s", cxALUOp[b.Op], sx, sy, g.spec(ty))
		dst = ty
	default:
		dst = g.pushTemp()
		g.emit("%s %s, %s, %s", cxALUOp[b.Op], sx, sy, g.spec(dst))
	}
	// Pointer difference: divide by the element size.
	if b.Scale < 0 && -b.Scale == 4 {
		g.emit("ashl #-2, %s, %s", g.spec(dst), g.spec(dst))
	}
	return dst, nil
}

func (g *ciscGen) genMod(b *Binary) (tref, error) {
	// a % b = a - (a/b)*b, with hardware divide.
	ta, err := g.genExpr(b.X)
	if err != nil {
		return -1, err
	}
	sb, tb, err := g.genOperand(b.Y)
	if err != nil {
		return -1, err
	}
	if tb >= 0 {
		sb = g.spec(tb)
	}
	q := g.pushTemp() // stack: ta [, tb], q — popped in reverse
	if tb >= 0 {
		sb = g.spec(tb) // re-query: allocating q may have spilled tb
	}
	g.emit("divl3 %s, %s, %s", g.spec(ta), sb, g.spec(q))
	g.emit("mull2 %s, %s", sb, g.spec(q))
	g.emit("subl2 %s, %s", g.spec(q), g.spec(ta))
	g.pop(q)
	if tb >= 0 {
		g.pop(tb)
	}
	return ta, nil
}

func (g *ciscGen) genShift(b *Binary) (tref, error) {
	sx, tx, err := g.genOperand(b.X)
	if err != nil {
		return -1, err
	}
	// Shift count: constant or register.
	if lit, ok := b.Y.(*IntLit); ok {
		n := lit.Val & 31
		if b.Op == ">>" {
			n = -n
		}
		if tx < 0 {
			tx = g.pushTemp()
		} else {
			sx = g.spec(tx)
		}
		g.emit("ashl #%d, %s, %s", n, sx, g.spec(tx))
		return tx, nil
	}
	ty, err := g.genExpr(b.Y)
	if err != nil {
		return -1, err
	}
	if tx >= 0 {
		sx = g.spec(tx)
	}
	if b.Op == ">>" {
		g.emit("subl3 #0, %s, %s", g.spec(ty), g.spec(ty))
	}
	dst := ty
	g.emit("ashl %s, %s, %s", g.spec(ty), sx, g.spec(ty))
	if tx >= 0 {
		// Result is in ty (top); sink it into tx.
		if g.spec(ty) != g.spec(tx) {
			g.emit("movl %s, %s", g.spec(ty), g.spec(tx))
		}
		g.pop(ty)
		dst = tx
	}
	return dst, nil
}

func (g *ciscGen) genValueViaBranches(e Expr) (tref, error) {
	g.spillAllTemps()
	slot := g.allocSlot()
	meet := g.slotSpec(slot)

	if c, ok := e.(*Cond); ok {
		elseL := g.newLabel("celse")
		endL := g.newLabel("cend")
		if err := g.genBranch(c.C, elseL, false); err != nil {
			return -1, err
		}
		ta, err := g.genExpr(c.A)
		if err != nil {
			return -1, err
		}
		g.emit("movl %s, %s", g.spec(ta), meet)
		g.pop(ta)
		g.emit("br %s", endL)
		g.label(elseL)
		tb, err := g.genExpr(c.B)
		if err != nil {
			return -1, err
		}
		g.emit("movl %s, %s", g.spec(tb), meet)
		g.pop(tb)
		g.label(endL)
	} else {
		trueL := g.newLabel("btrue")
		endL := g.newLabel("bend")
		if err := g.genBranch(e, trueL, true); err != nil {
			return -1, err
		}
		g.emit("clrl %s", meet)
		g.emit("br %s", endL)
		g.label(trueL)
		g.emit("movl #1, %s", meet)
		g.label(endL)
	}
	t := g.pushTemp()
	g.emit("movl %s, %s", meet, g.spec(t))
	g.freeSlots = append(g.freeSlots, slot)
	return t, nil
}

func (g *ciscGen) genIncDec(x *IncDec) (tref, error) {
	if lv, ok := x.X.(*VarRef); ok {
		dst := ""
		if r, ok := g.localReg[lv.Decl]; ok {
			dst = regNames[r]
		} else if off, ok := g.localOff[lv.Decl]; ok {
			dst = scalarSpec(off)
		} else if lv.Decl.IsGlobal && lv.Decl.Type.IsScalar() {
			dst = "@" + globalLabel(lv.Decl)
		}
		if dst != "" {
			t := g.pushTemp()
			if x.Post {
				g.emit("movl %s, %s", dst, g.spec(t))
				g.emitDelta(dst, x.Delta)
			} else {
				g.emitDelta(dst, x.Delta)
				g.emit("movl %s, %s", dst, g.spec(t))
			}
			return t, nil
		}
	}
	// Memory lvalue.
	spec, temps, err := g.genMem(x.X)
	if err != nil {
		return -1, err
	}
	t := g.pushTemp()
	if x.Post {
		g.emit("movl %s, %s", spec, g.spec(t))
		g.emitDelta(spec, x.Delta)
	} else {
		g.emitDelta(spec, x.Delta)
		g.emit("movl %s, %s", spec, g.spec(t))
	}
	return g.sinkResult(t, temps)
}

func (g *ciscGen) emitDelta(dst string, delta int) {
	switch delta {
	case 1:
		g.emit("incl %s", dst)
	case -1:
		g.emit("decl %s", dst)
	default:
		if delta >= 0 {
			g.emit("addl2 #%d, %s", delta, dst)
		} else {
			g.emit("subl2 #%d, %s", -delta, dst)
		}
	}
}

func (g *ciscGen) genCall(c *Call) (tref, error) {
	switch c.Builtin {
	case "spawn", "join", "lock", "unlock", "coreid", "ncores":
		// The SMP runtime exists only for the windowed RISC target.
		return -1, &CompileError{Line: c.Line,
			Msg: c.Builtin + " requires the windowed risc target"}
	}
	if c.Builtin != "" {
		src, t, err := g.genOperand(c.Args[0])
		if err != nil {
			return -1, err
		}
		if t >= 0 {
			src = g.spec(t)
		}
		port := "@0xFFFFFF00"
		if c.Builtin == "putint" {
			port = "@0xFFFFFF04"
		}
		g.emit("movl %s, %s", src, port)
		if t >= 0 {
			g.pop(t)
		}
		return -1, nil
	}

	g.spillAllTemps()
	// Push arguments right-to-left; each is evaluated just before its
	// push, so inner calls compose naturally.
	for i := len(c.Args) - 1; i >= 0; i-- {
		src, t, err := g.genOperand(c.Args[i])
		if err != nil {
			return -1, err
		}
		if t >= 0 {
			src = g.spec(t)
		}
		g.emit("pushl %s", src)
		if t >= 0 {
			g.pop(t)
		}
	}
	g.emit("calls #%d, %s", len(c.Args), c.Func.Name)
	if c.Func.Ret.Kind == TypeVoid {
		return -1, nil
	}
	t := g.pushTemp()
	if g.spec(t) != "r0" {
		g.emit("movl r0, %s", g.spec(t))
	}
	return t, nil
}

// ---------- data ----------

func (g *ciscGen) genData() {
	g.out.WriteString("\n; ---- data ----\n\t.align 4\n__data_start:\n")
	for _, v := range g.prog.Globals {
		fmt.Fprintf(&g.out, "%s:\n", globalLabel(v))
		g.emitInit(v)
		g.out.WriteString("\t.align 4\n")
	}
	for i, s := range g.prog.Strings {
		fmt.Fprintf(&g.out, "Lstr%d:\t.asciz %q\n\t.align 4\n", i, s)
	}
}

func (g *ciscGen) emitInit(v *VarDecl) {
	switch {
	case v.InitString != "":
		fmt.Fprintf(&g.out, "\t.asciz %q\n", v.InitString)
		if pad := v.Type.Len - len(v.InitString) - 1; pad > 0 {
			fmt.Fprintf(&g.out, "\t.space %d\n", pad)
		}
	case len(v.InitInts) > 0:
		if v.Type.Kind == TypeArray && v.Type.Elem.Kind == TypeChar {
			for _, n := range v.InitInts {
				fmt.Fprintf(&g.out, "\t.byte %d\n", uint8(n))
			}
			if pad := v.Type.Len - len(v.InitInts); pad > 0 {
				fmt.Fprintf(&g.out, "\t.space %d\n", pad)
			}
			return
		}
		vals := make([]string, len(v.InitInts))
		for i, n := range v.InitInts {
			vals[i] = strconv.Itoa(int(int32(n)))
		}
		fmt.Fprintf(&g.out, "\t.word %s\n", strings.Join(vals, ", "))
		if v.Type.Kind == TypeArray {
			if pad := 4 * (v.Type.Len - len(v.InitInts)); pad > 0 {
				fmt.Fprintf(&g.out, "\t.space %d\n", pad)
			}
		}
	default:
		fmt.Fprintf(&g.out, "\t.space %d\n", v.Type.Size())
	}
}
