package cc

import (
	"fmt"
	"strconv"
	"strings"

	"risc1/internal/isa"
)

// Expression generation for the RISC back end. genExpr evaluates e into a
// fresh temporary and returns its handle; void calls return -1.

func (g *riscGen) genExpr(e Expr) (tref, error) {
	switch x := e.(type) {
	case *IntLit:
		t := g.pushTemp()
		g.emit("li #%d,r%d", int32(x.Val), g.reg(t))
		return t, nil

	case *StrLit:
		t := g.pushTemp()
		g.emitSymAddr(strLabel(x.Index), g.reg(t))
		return t, nil

	case *VarRef:
		return g.genLoadVar(x.Decl)

	case *Unary:
		return g.genUnary(x)

	case *Index:
		at, size, err := g.genAddrOf(x)
		if err != nil {
			return -1, err
		}
		r := g.reg(at)
		g.emit("%s (r%d)#0,r%d", loadOp(size), r, r)
		return at, nil

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
	return -1, errorAt(0, "unknown expression %T", e)
}

func loadOp(size int) string {
	if size == 1 {
		return "ldbu"
	}
	return "ldl"
}

func storeOp(size int) string {
	if size == 1 {
		return "stb"
	}
	return "stl"
}

// emitSymAddr materializes the address of a data symbol: one add off the
// global pointer when gp addressing is on, otherwise a full la pair.
func (g *riscGen) emitSymAddr(sym string, r uint8) {
	if g.useGP {
		g.noteGP(sym)
		g.emit("add r%d,#%s-%d,r%d", GPReg, sym, gpAnchor, r)
	} else {
		g.emit("la %s,r%d", sym, r)
	}
}

func (g *riscGen) genLoadVar(v *VarDecl) (tref, error) {
	t := g.pushTemp()
	r := g.reg(t)
	switch {
	case g.localReg[v] != 0:
		g.emit("mov r%d,r%d", g.localReg[v], r)
	case v.IsGlobal:
		if v.Type.Kind == TypeArray {
			g.emitSymAddr(globalLabel(v), r)
			return t, nil // the array's value is its address
		}
		if g.useGP {
			sym := globalLabel(v)
			g.noteGP(sym)
			g.emit("%s (r%d)#%s-%d,r%d", loadOp(v.Type.Size()), GPReg, sym, gpAnchor, r)
			return t, nil
		}
		g.emit("la %s,r%d", globalLabel(v), r)
		g.emit("%s (r%d)#0,r%d", loadOp(v.Type.Size()), r, r)
	default:
		off, ok := g.localOff[v]
		if !ok {
			return -1, errorAt(v.Line, "variable %s has no storage", v.Name)
		}
		if v.Type.Kind == TypeArray {
			g.emit("add r%d,#%d,r%d", g.conv.sp, off, r)
			return t, nil
		}
		g.emit("%s (r%d)#%d,r%d", loadOp(v.Type.Size()), g.conv.sp, off, r)
	}
	return t, nil
}

func globalLabel(v *VarDecl) string { return "g_" + v.Name }

// genAddrOf computes the byte address of an lvalue (or array/decay) into a
// temp, returning (temp, element size).
func (g *riscGen) genAddrOf(e Expr) (tref, int, error) {
	switch x := e.(type) {
	case *VarRef:
		v := x.Decl
		size := v.Type.Size()
		if v.Type.Kind == TypeArray {
			size = v.Type.Elem.Size()
		}
		t := g.pushTemp()
		r := g.reg(t)
		switch {
		case v.IsGlobal:
			g.emitSymAddr(globalLabel(v), r)
		default:
			off, ok := g.localOff[v]
			if !ok {
				return -1, 0, errorAt(v.Line, "address of register variable %s", v.Name)
			}
			g.emit("add r%d,#%d,r%d", g.conv.sp, off, r)
		}
		return t, size, nil

	case *StrLit:
		t := g.pushTemp()
		g.emitSymAddr(strLabel(x.Index), g.reg(t))
		return t, 1, nil

	case *Unary:
		switch x.Op {
		case "*":
			t, err := g.genExpr(x.X)
			return t, x.TypeOf().Size(), err
		case "decay":
			t, _, err := g.genAddrOf(x.X)
			return t, x.TypeOf().Elem.Size(), err
		}

	case *Index:
		base, err := g.genExpr(x.Arr) // pointer value
		if err != nil {
			return -1, 0, err
		}
		size := x.TypeOf().Size()
		// Constant index folds into the displacement when it fits.
		if lit, ok := x.Idx.(*IntLit); ok {
			off := lit.Val * int64(size)
			if off >= isa.MinImm13 && off <= isa.MaxImm13 {
				if off != 0 {
					r := g.reg(base)
					g.emit("add r%d,#%d,r%d", r, off, r)
				}
				return base, size, nil
			}
		}
		g.pin(g.reg(base))
		g.bases = append(g.bases, base)
		ri, ti, err := g.operandReg(x.Idx)
		g.bases = g.bases[:len(g.bases)-1]
		if err != nil {
			return -1, 0, err
		}
		if size == 4 {
			// Scale into a temp (never in place: ri may be a live local).
			if ti < 0 {
				ti = g.pushTemp()
			}
			g.emit("sll r%d,#2,r%d", ri, g.reg(ti))
			ri = g.reg(ti)
		}
		if ti >= 0 && g.temps[base].reg < 0 {
			g.pin(ri) // keep the index while the spilled base reloads
		}
		rb := g.reg(base)
		g.unpin(rb)
		g.emit("add r%d,r%d,r%d", rb, ri, rb)
		if ti >= 0 {
			g.pop(ti)
		}
		return base, size, nil
	}
	return -1, 0, errorAt(0, "cannot take the address of %T", e)
}

// genStore evaluates rhs and stores it into lvalue lv, discarding the value.
func (g *riscGen) genStore(lv Expr, rhs Expr) error {
	_, err := g.genStoreVal(lv, rhs, false)
	return err
}

// genStoreVal is the assignment workhorse. With wantValue it returns a temp
// holding the stored value (char-truncated when the lvalue is char);
// otherwise it returns -1.
func (g *riscGen) genStoreVal(lv Expr, rhs Expr, wantValue bool) (tref, error) {
	if x, ok := lv.(*VarRef); ok {
		if r, ok := g.localReg[x.Decl]; ok {
			rv, t, err := g.operandReg(rhs)
			if err != nil {
				return -1, err
			}
			if x.Decl.Type.Kind == TypeChar {
				g.emit("and r%d,#255,r%d", rv, r)
			} else if rv != r {
				g.emit("mov r%d,r%d", rv, r)
			}
			if wantValue {
				if t < 0 {
					t = g.pushTemp()
				}
				g.emit("mov r%d,r%d", r, g.reg(t))
				return t, nil
			}
			if t >= 0 {
				g.pop(t)
			}
			return -1, nil
		}
	}
	// Global scalars store through the global pointer in one instruction.
	if x, ok := lv.(*VarRef); ok && x.Decl.IsGlobal && x.Decl.Type.IsScalar() && g.useGP {
		t, err := g.genExpr(rhs)
		if err != nil {
			return -1, err
		}
		rv := g.reg(t)
		if x.Decl.Type.Kind == TypeChar {
			g.emit("and r%d,#255,r%d", rv, rv)
		}
		sym := globalLabel(x.Decl)
		g.noteGP(sym)
		g.emit("%s r%d,(r%d)#%s-%d", storeOp(x.Decl.Type.Size()), g.reg(t), GPReg, sym, gpAnchor)
		if wantValue {
			return t, nil
		}
		g.pop(t)
		return -1, nil
	}

	// Storing constant zero reads the hardware zero register directly.
	if isZero(rhs) && !wantValue {
		at, size, err := g.genAddrOf(lv)
		if err != nil {
			return -1, err
		}
		g.emit("%s r0,(r%d)#0", storeOp(size), g.reg(at))
		g.pop(at)
		return -1, nil
	}

	// Memory lvalue: compute address, then the value, then store.
	at, size, err := g.genAddrOf(lv)
	if err != nil {
		return -1, err
	}
	g.pin(g.reg(at))
	vt, err := g.genExpr(rhs)
	if err != nil {
		return -1, err
	}
	if size == 1 {
		rv := g.reg(vt)
		g.emit("and r%d,#255,r%d", rv, rv)
	}
	g.unpin(g.reg(at))
	g.emit("%s r%d,(r%d)#0", storeOp(size), g.reg(vt), g.reg(at))
	if wantValue {
		// Keep the value: move it down into at's stack position.
		if g.reg(vt) != g.reg(at) {
			g.emit("mov r%d,r%d", g.reg(vt), g.reg(at))
		}
		g.pop(vt)
		return at, nil
	}
	g.pop(vt)
	g.pop(at)
	return -1, nil
}

func (g *riscGen) genUnary(x *Unary) (tref, error) {
	switch x.Op {
	case "-":
		t, err := g.genExpr(x.X)
		if err != nil {
			return -1, err
		}
		r := g.reg(t)
		g.emit("sub r0,r%d,r%d", r, r)
		return t, nil
	case "~":
		t, err := g.genExpr(x.X)
		if err != nil {
			return -1, err
		}
		r := g.reg(t)
		g.emit("xor r%d,#-1,r%d", r, r)
		return t, nil
	case "!":
		return g.genValueViaBranches(x)
	case "*":
		t, err := g.genExpr(x.X)
		if err != nil {
			return -1, err
		}
		r := g.reg(t)
		g.emit("%s (r%d)#0,r%d", loadOp(x.TypeOf().Size()), r, r)
		return t, nil
	case "&", "decay":
		t, _, err := g.genAddrOf(x.X)
		return t, err
	}
	return -1, errorAt(0, "unknown unary %q", x.Op)
}

func (g *riscGen) genBinary(b *Binary) (tref, error) {
	if _, isCmp := comparisonCond(b); isCmp {
		return g.genValueViaBranches(b)
	}
	switch b.Op {
	case "*", "/", "%":
		return g.genMulDiv(b)
	}

	op := map[string]string{
		"+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor",
		"<<": "sll", ">>": "sra",
	}[b.Op]
	if op == "" {
		return -1, errorAt(0, "unknown binary %q", b.Op)
	}

	rx, tx, err := g.operandReg(b.X)
	if err != nil {
		return -1, err
	}
	if tx >= 0 {
		g.pin(rx)
	}

	// Second operand: a (scale-folded) immediate, a direct register, or a
	// temp. Pointer scaling of a non-literal lands in a temp via sll.
	var s2 string
	ty := tref(-1)
	if lit, ok := b.Y.(*IntLit); ok && b.Scale >= 0 {
		v := lit.Val
		if b.Scale > 0 {
			v *= int64(b.Scale)
		}
		if v >= isa.MinImm13 && v <= isa.MaxImm13 {
			s2 = immText(v)
		}
	}
	if s2 == "" {
		switch {
		case b.Scale == 4:
			ty, err = g.genExpr(b.Y)
			if err != nil {
				return -1, err
			}
			ry := g.reg(ty)
			g.emit("sll r%d,#2,r%d", ry, ry)
			s2 = regNames[ry]
		default:
			s2, ty, err = g.genS2(b.Y)
			if err != nil {
				return -1, err
			}
		}
	}

	// Destination: reuse X's temp, else write over Y's temp, else fresh.
	var dst tref
	switch {
	case tx >= 0:
		g.unpin(rx)
		rx = g.reg(tx) // re-query: Y's evaluation may have spilled it
		dst = tx
	case ty >= 0:
		dst = ty
	default:
		dst = g.pushTemp()
	}
	g.emit("%s r%d,%s,r%d", op, rx, s2, g.reg(dst))
	if b.Scale < 0 && -b.Scale == 4 {
		// Pointer difference: byte delta to element count.
		g.emit("sra r%d,#2,r%d", g.reg(dst), g.reg(dst))
	}
	if ty >= 0 && ty != dst {
		g.pop(ty)
	}
	return dst, nil
}

// genMulDiv lowers *, / and %: powers of two reduce to shift sequences
// (with the sign-bias correction C's truncating division needs); everything
// else calls the software routines (RISC I has no multiply or divide
// hardware — the paper's compiler did the same).
func (g *riscGen) genMulDiv(b *Binary) (tref, error) {
	if lit, ok := b.Y.(*IntLit); ok {
		if sh := log2(lit.Val); sh >= 0 {
			switch b.Op {
			case "*":
				t, err := g.genExpr(b.X)
				if err != nil {
					return -1, err
				}
				r := g.reg(t)
				if sh > 0 {
					g.emit("sll r%d,#%d,r%d", r, sh, r)
				}
				return t, nil
			case "/", "%":
				if sh == 0 { // /1 and %1
					if b.Op == "%" {
						t := g.pushTemp()
						g.emit("add r0,#0,r%d", g.reg(t))
						return t, nil
					}
					return g.genExpr(b.X)
				}
				// Truncating division by 2^sh: add (2^sh - 1) when the
				// dividend is negative, then shift arithmetically.
				//   t = x >> 31 (sign mask); t >>= (32-sh) logical
				//   q = (x + t) >> sh
				rx, tx, err := g.operandReg(b.X)
				if err != nil {
					return -1, err
				}
				if tx >= 0 {
					g.pin(rx)
				}
				t := g.pushTemp()
				rt := g.reg(t)
				g.emit("sra r%d,#31,r%d", rx, rt)
				g.emit("srl r%d,#%d,r%d", rt, 32-sh, rt)
				g.emit("add r%d,r%d,r%d", rx, rt, rt)
				if b.Op == "/" {
					g.emit("sra r%d,#%d,r%d", rt, sh, rt)
				} else {
					// x % 2^sh = x - (x / 2^sh) << sh.
					g.emit("sra r%d,#%d,r%d", rt, sh, rt)
					g.emit("sll r%d,#%d,r%d", rt, sh, rt)
					g.emit("sub r%d,r%d,r%d", rx, rt, rt)
				}
				if tx >= 0 {
					g.unpin(g.reg(tx))
					// Sink the result into X's temp position.
					if g.reg(t) != g.reg(tx) {
						g.emit("mov r%d,r%d", g.reg(t), g.reg(tx))
					}
					g.pop(t)
					return tx, nil
				}
				return t, nil
			}
		}
	}
	var fn string
	switch b.Op {
	case "*":
		fn, g.usesMul = "__mulsi", true
	case "/":
		fn, g.usesDiv = "__divsi", true
	default:
		fn, g.usesMod = "__modsi", true
	}
	call := &Call{exprBase: exprBase{intType},
		Args: []Expr{b.X, b.Y}, runtimeName: fn}
	return g.genCall(call)
}

func log2(v int64) int {
	if v <= 0 || v&(v-1) != 0 {
		return -1
	}
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// genValueViaBranches materializes a boolean-producing expression (!, the
// comparisons, && and ||) or a ?: into a register using branches.
//
// Control flow diverges here, so all live temporaries are parked in frame
// slots first and the two paths meet through a frame slot: a register-only
// meeting point would require both compile-time paths to leave the register
// state identical, which nested calls (which clobber all scratch registers)
// make impossible to guarantee.
func (g *riscGen) genValueViaBranches(e Expr) (tref, error) {
	g.spillAllTemps()
	slot := g.allocSlot()
	off := g.slotOff(slot)

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
		g.emit("stl r%d,(r%d)#%d", g.reg(ta), g.conv.sp, off)
		g.pop(ta)
		g.emit("b %s", endL)
		g.emit("nop")
		g.label(elseL)
		tb, err := g.genExpr(c.B)
		if err != nil {
			return -1, err
		}
		g.emit("stl r%d,(r%d)#%d", g.reg(tb), g.conv.sp, off)
		g.pop(tb)
		g.label(endL)
	} else {
		trueL := g.newLabel("btrue")
		endL := g.newLabel("bend")
		if err := g.genBranch(e, trueL, true); err != nil {
			return -1, err
		}
		g.emit("stl r0,(r%d)#%d", g.conv.sp, off)
		g.emit("b %s", endL)
		g.emit("nop")
		g.label(trueL)
		one := g.pushTemp()
		g.emit("add r0,#1,r%d", g.reg(one))
		g.emit("stl r%d,(r%d)#%d", g.reg(one), g.conv.sp, off)
		g.pop(one)
		g.label(endL)
	}

	t := g.pushTemp()
	g.emit("ldl (r%d)#%d,r%d", g.conv.sp, off, g.reg(t))
	g.freeSlots = append(g.freeSlots, slot)
	return t, nil
}

func (g *riscGen) genIncDec(x *IncDec) (tref, error) {
	switch lv := x.X.(type) {
	case *VarRef:
		if r, ok := g.localReg[lv.Decl]; ok {
			t := g.pushTemp()
			rt := g.reg(t)
			if x.Post {
				g.emit("mov r%d,r%d", r, rt)
				g.emit("add r%d,#%d,r%d", r, x.Delta, r)
			} else {
				g.emit("add r%d,#%d,r%d", r, x.Delta, r)
				g.emit("mov r%d,r%d", r, rt)
			}
			return t, nil
		}
	}
	// Memory lvalue.
	at, size, err := g.genAddrOf(x.X)
	if err != nil {
		return -1, err
	}
	ra := g.reg(at)
	g.pin(ra)
	t := g.pushTemp()
	rt := g.reg(t)
	g.emit("%s (r%d)#0,r%d", loadOp(size), ra, rt)
	if x.Post {
		// Store the updated value but return the original: use one more
		// scratch move through the address register after the store.
		g.emit("add r%d,#%d,r%d", rt, x.Delta, rt)
		g.emit("%s r%d,(r%d)#0", storeOp(size), rt, ra)
		g.emit("sub r%d,#%d,r%d", rt, x.Delta, rt)
	} else {
		g.emit("add r%d,#%d,r%d", rt, x.Delta, rt)
		g.emit("%s r%d,(r%d)#0", storeOp(size), rt, ra)
	}
	g.unpin(ra)
	// Move the result into the bottom temp position (at) so the stack
	// discipline holds: pop t, overwrite at's register.
	if g.reg(at) != rt {
		g.emit("mov r%d,r%d", rt, g.reg(at))
	}
	g.pop(t)
	return at, nil
}

// ---------- calls ----------

func containsCall(e Expr) bool {
	switch v := e.(type) {
	case nil, *IntLit, *StrLit, *VarRef:
		return false
	case *Unary:
		return containsCall(v.X)
	case *Binary:
		// Multiplication and division lower to runtime calls.
		if v.Op == "*" || v.Op == "/" || v.Op == "%" {
			return true
		}
		return containsCall(v.X) || containsCall(v.Y)
	case *Logic:
		return containsCall(v.X) || containsCall(v.Y)
	case *Index:
		return containsCall(v.Arr) || containsCall(v.Idx)
	case *Cond:
		return containsCall(v.C) || containsCall(v.A) || containsCall(v.B)
	case *Assign:
		return containsCall(v.X) || containsCall(v.Y)
	case *IncDec:
		return containsCall(v.X)
	case *Call:
		return true
	}
	return true
}

// genSMPBuiltin lowers the SMP builtins to their runtime routines. The
// routines are written for the windowed convention (they keep spin-loop
// state in LOCAL registers, and spawn's inline fallback leans on the window
// overlap), so the flat ablation target rejects them with a typed error.
func (g *riscGen) genSMPBuiltin(c *Call) (tref, error) {
	if !g.windowed {
		return -1, &CompileError{Line: c.Line,
			Msg: c.Builtin + " requires the windowed risc target"}
	}
	switch c.Builtin {
	case "join":
		g.usesJoin = true
		return g.genCall(&Call{exprBase: exprBase{voidType},
			Args: c.Args, runtimeName: "__join", Line: c.Line})
	case "lock":
		g.usesLock = true
		return g.genCall(&Call{exprBase: exprBase{voidType},
			Args: c.Args, runtimeName: "__lock", Line: c.Line})
	case "unlock":
		g.usesUnlock = true
		return g.genCall(&Call{exprBase: exprBase{voidType},
			Args: c.Args, runtimeName: "__unlock", Line: c.Line})
	}

	// spawn(fn, x) -> __spawn(&fn, x), the function address materialized
	// with la. The argument parks in a frame slot first (mirroring the
	// general call path) so its evaluation cannot disturb the staging.
	g.usesSpawn = true
	g.spillAllTemps()
	t0, err := g.genExpr(c.Args[0])
	if err != nil {
		return -1, err
	}
	slot := g.allocSlot()
	g.emit("stl r%d,(r%d)#%d", g.reg(t0), g.conv.sp, g.slotOff(slot))
	g.pop(t0)
	fnR := g.conv.argOut
	argR := g.conv.argOut + 1
	g.removeFromFree(fnR)
	g.emit("la %s,r%d", c.Func.Name, fnR)
	g.pin(fnR)
	g.removeFromFree(argR)
	g.emit("ldl (r%d)#%d,r%d", g.conv.sp, g.slotOff(slot), argR)
	g.pin(argR)
	g.freeSlots = append(g.freeSlots, slot)
	g.emit("callr r%d,__spawn", g.conv.link)
	g.emit("nop")
	g.unpin(fnR)
	g.addToFree(fnR)
	g.unpin(argR)
	g.addToFree(argR)
	t := g.pushTemp()
	if r := g.reg(t); r != g.conv.retIn {
		g.emit("mov r%d,r%d", g.conv.retIn, r)
	}
	return t, nil
}

func (g *riscGen) genCall(c *Call) (tref, error) {
	switch c.Builtin {
	case "putint", "putchar":
		r, t, err := g.operandReg(c.Args[0])
		if err != nil {
			return -1, err
		}
		port := -256 // 0xFFFFFF00: putchar
		if c.Builtin == "putint" {
			port = -252 // 0xFFFFFF04
		}
		g.emit("stl r%d,(r0)#%d", r, port)
		if t >= 0 {
			g.pop(t)
		}
		return -1, nil
	case "coreid", "ncores":
		// Inline loads from the SMP control page; without an SMP
		// controller the device answers 0 and 1, so single-core programs
		// need no special casing.
		off := -512 // 0xFFFFFE00: COREID
		if c.Builtin == "ncores" {
			off = -508 // 0xFFFFFE04: NCORES
		}
		t := g.pushTemp()
		g.emit("ldl (r0)#%d,r%d", off, g.reg(t))
		return t, nil
	case "spawn", "join", "lock", "unlock":
		return g.genSMPBuiltin(c)
	}

	name := c.runtimeName
	isVoid := c.TypeOf().Kind == TypeVoid
	if name == "" {
		name = c.Func.Name
		isVoid = c.Func.Ret.Kind == TypeVoid
	}

	// Any temporaries live across the call must survive the scratch
	// clobber; park them in the frame.
	g.spillAllTemps()

	simple := true
	for _, a := range c.Args {
		if containsCall(a) {
			simple = false
			break
		}
	}

	if simple {
		// Evaluate each argument directly into its outgoing register,
		// reserving already-staged ones.
		for i, a := range c.Args {
			target := g.conv.argOut + uint8(i)
			g.removeFromFree(target)
			r, t, err := g.operandReg(a)
			if err != nil {
				return -1, err
			}
			if r != target {
				g.emit("mov r%d,r%d", r, target)
			}
			if t >= 0 {
				g.pop(t)
			}
		}
	} else {
		// General path: evaluate all arguments to frame slots, then
		// load them into the outgoing registers.
		slots := make([]int, len(c.Args))
		for i, a := range c.Args {
			t, err := g.genExpr(a)
			if err != nil {
				return -1, err
			}
			slots[i] = g.allocSlot()
			g.emit("stl r%d,(r%d)#%d", g.reg(t), g.conv.sp, g.slotOff(slots[i]))
			g.pop(t)
		}
		for i := range c.Args {
			target := g.conv.argOut + uint8(i)
			g.removeFromFree(target)
			g.emit("ldl (r%d)#%d,r%d", g.conv.sp, g.slotOff(slots[i]), target)
			g.pin(target)
		}
		for _, s := range slots {
			g.freeSlots = append(g.freeSlots, s)
		}
	}

	g.emit("callr r%d,%s", g.conv.link, name)
	g.emit("nop")

	// Release argument registers back to the pool.
	for i := range c.Args {
		target := g.conv.argOut + uint8(i)
		g.unpin(target)
		g.addToFree(target)
	}
	if isVoid {
		return -1, nil
	}
	t := g.pushTemp()
	if r := g.reg(t); r != g.conv.retIn {
		g.emit("mov r%d,r%d", g.conv.retIn, r)
	}
	return t, nil
}

func (g *riscGen) removeFromFree(r uint8) {
	for i, f := range g.freeRegs {
		if f == r {
			g.freeRegs = append(g.freeRegs[:i], g.freeRegs[i+1:]...)
			return
		}
	}
}

func (g *riscGen) addToFree(r uint8) {
	for _, f := range g.freeRegs {
		if f == r {
			return
		}
	}
	g.freeRegs = append(g.freeRegs, r)
}

// ---------- data section and runtime ----------

func (g *riscGen) genData() {
	// __data_start separates code from data so the size experiments can
	// measure program (code) bytes the way the paper did.
	g.out.WriteString("\n; ---- data ----\n\t.align 4\n__data_start:\n")
	for _, v := range g.prog.Globals {
		fmt.Fprintf(&g.out, "%s:\n", globalLabel(v))
		g.emitInit(v)
		g.out.WriteString("\t.align 4\n")
	}
	for i, s := range g.prog.Strings {
		fmt.Fprintf(&g.out, ".Lstr%d:\t.asciz %q\n\t.align 4\n", i, s)
	}
}

func (g *riscGen) emitInit(v *VarDecl) {
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
