package cc

import "strings"

// GenerateCISC compiles a checked program to CX assembly. The generator
// leans on everything that makes a CISC dense: memory operands on ALU
// instructions, indexed addressing for arrays, memory-to-memory moves,
// hardware multiply/divide, and CALLS frames with register-save masks.
func GenerateCISC(prog *Program) (string, error) {
	g := &ciscGen{prog: prog}
	return g.generate()
}

type ciscGen struct {
	prog *Program
	out  strings.Builder

	fn        *FuncDecl
	body      []byte           // the function's instructions, one a line
	localReg  map[*VarDecl]int // r2..r11
	localOff  map[*VarDecl]int // frameAlloc offset (block below fp)
	memBytes  int
	usedRegs  map[int]bool
	temps     []rtemp
	freeRegs  []int // r0, r1
	freeSlots []int
	spillMax  int
	labelN    int
	breakL    []string
	contL     []string
}

func (g *ciscGen) emit(format string, args ...any) {
	g.body = append(g.body, '\t')
	g.body = appendf(g.body, format, args...)
	g.body = append(g.body, '\n')
}

// outf writes one formatted line of function glue straight to the output.
func (g *ciscGen) outf(format string, args ...any) {
	var buf [64]byte
	g.out.Write(appendf(buf[:0], format, args...))
}

func (g *ciscGen) label(l string) {
	g.body = append(g.body, l...)
	g.body = append(g.body, ":\n"...)
}

func (g *ciscGen) newLabel(hint string) string {
	g.labelN++
	var buf [64]byte
	return string(appendf(buf[:0], "L%s_%s%d", g.fn.Name, hint, g.labelN))
}

// specf formats an operand specifier.
func specf(format string, args ...any) string {
	var buf [32]byte
	return string(appendf(buf[:0], format, args...))
}

func (g *ciscGen) generate() (_ string, err error) {
	defer recoverOutOfRegisters(&err)
	g.out.WriteString("; Cm compiler output, target: CX (CISC)\n\t.entry main\n")
	for _, fn := range g.prog.Funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}
	g.genData()
	return g.out.String(), nil
}

// frame spec helpers: scalar block allocated at off occupies
// [fp-off-4, fp-off); its operand is -(off+4)(fp).
func scalarSpec(off int) string { return specf("-%d(fp)", off+4) }

func (g *ciscGen) slotSpec(slot int) string { return scalarSpec(g.memBytes + 4*slot) }

func (g *ciscGen) genFunc(fn *FuncDecl) error {
	g.fn = fn
	g.body = g.body[:0]
	g.localReg = map[*VarDecl]int{}
	g.localOff = map[*VarDecl]int{}
	g.memBytes = 0
	g.usedRegs = map[int]bool{}
	g.temps = nil
	g.freeRegs = []int{1, 0}
	g.freeSlots = nil
	g.spillMax = 0
	g.labelN = 0
	g.breakL, g.contL = nil, nil

	next := 2
	takeReg := func() (int, bool) {
		if next <= 11 {
			next++
			g.usedRegs[next-1] = true
			return next - 1, true
		}
		return 0, false
	}
	frameAlloc := func(size int) int {
		off := g.memBytes
		g.memBytes += (size + 3) &^ 3
		return off
	}

	for _, p := range fn.Params {
		if p.AddrTaken {
			g.localOff[p] = frameAlloc(4)
			continue
		}
		if r, ok := takeReg(); ok {
			g.localReg[p] = r
		} else {
			g.localOff[p] = frameAlloc(4)
		}
	}
	for _, v := range fn.Locals {
		if v.AddrTaken || !v.Type.IsScalar() {
			g.localOff[v] = frameAlloc(v.Type.Size())
			continue
		}
		if r, ok := takeReg(); ok {
			g.localReg[v] = r
		} else {
			g.localOff[v] = frameAlloc(4)
		}
	}

	retL := "Lret_" + fn.Name
	if err := g.genBlock(fn.Body); err != nil {
		return err
	}
	g.label(retL)

	// Prologue with the final frame size and register mask. The function's
	// text goes out in one piece: grow the output once for it.
	g.out.Grow(len(g.body) + 64*(len(fn.Params)+4))
	g.outf("\n; ---- %s ----\n%s:\t.mask ", fn.Name, fn.Name)
	sep := ""
	for r := 0; r <= 11; r++ { // the registers takeReg hands out, in order
		if g.usedRegs[r] {
			g.out.WriteString(sep)
			g.out.WriteString(regNames[r])
			sep = ", "
		}
	}
	g.out.WriteByte('\n')
	frame := g.memBytes + 4*g.spillMax
	if frame > 0 {
		g.outf("\tsubl2 #%d, sp\n", frame)
	}
	for i, p := range fn.Params {
		if r, ok := g.localReg[p]; ok {
			g.outf("\tmovl %d(ap), r%d\n", 4+4*i, r)
		} else {
			g.outf("\tmovl %d(ap), %s\n", 4+4*i, scalarSpec(g.localOff[p]))
		}
	}
	g.out.Write(g.body)
	g.out.WriteString("\tret\n")
	return nil
}

// ---------- temporaries (r0/r1 with frame spill) ----------

func (g *ciscGen) allocSlot() int {
	if n := len(g.freeSlots); n > 0 {
		s := g.freeSlots[n-1]
		g.freeSlots = g.freeSlots[:n-1]
		return s
	}
	g.spillMax++
	return g.spillMax - 1
}

func (g *ciscGen) takeReg() int {
	if len(g.freeRegs) > 0 {
		r := g.freeRegs[0]
		g.freeRegs = g.freeRegs[1:]
		return r
	}
	for i := range g.temps {
		t := &g.temps[i]
		if t.reg >= 0 {
			r := int(t.reg)
			t.slot = g.allocSlot()
			g.emit("movl r%d, %s", r, g.slotSpec(t.slot))
			t.reg = -1
			return r
		}
	}
	panic(outOfRegisters{g.fn.Line})
}

func (g *ciscGen) pushTemp() tref {
	r := g.takeReg()
	g.temps = append(g.temps, rtemp{reg: int16(r)})
	return tref(len(g.temps) - 1)
}

// spec returns an operand specifier for the temp: its register, or its
// frame slot when spilled (memory operands are first-class on CX).
func (g *ciscGen) spec(t tref) string {
	tm := &g.temps[t]
	if tm.reg >= 0 {
		return regNames[tm.reg]
	}
	return g.slotSpec(tm.slot)
}

// reg forces the temp into a register (needed for indexed addressing).
func (g *ciscGen) reg(t tref) int {
	tm := &g.temps[t]
	if tm.reg >= 0 {
		return int(tm.reg)
	}
	r := g.takeReg()
	g.emit("movl %s, r%d", g.slotSpec(tm.slot), r)
	g.freeSlots = append(g.freeSlots, tm.slot)
	tm.reg = int16(r)
	return r
}

func (g *ciscGen) pop(t tref) {
	if int(t) != len(g.temps)-1 {
		panic("cc/cisc: temp stack discipline violated")
	}
	tm := g.temps[t]
	if tm.reg >= 0 {
		g.freeRegs = append(g.freeRegs, int(tm.reg))
	} else {
		g.freeSlots = append(g.freeSlots, tm.slot)
	}
	g.temps = g.temps[:t]
}

func (g *ciscGen) spillAllTemps() {
	for i := range g.temps {
		t := &g.temps[i]
		if t.reg >= 0 {
			t.slot = g.allocSlot()
			g.emit("movl r%d, %s", int(t.reg), g.slotSpec(t.slot))
			g.freeRegs = append(g.freeRegs, int(t.reg))
			t.reg = -1
		}
	}
}

// ---------- statements ----------

func (g *ciscGen) genBlock(b *Block) error {
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *ciscGen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return g.genBlock(st)
	case *DeclStmt:
		if st.Init == nil {
			return nil
		}
		_, err := g.genStoreVal(&VarRef{exprBase: exprBase{st.Var.Type}, Decl: st.Var}, st.Init, false)
		return err
	case *ExprStmt:
		t, err := g.genExpr(st.X)
		if err != nil {
			return err
		}
		if t >= 0 {
			g.pop(t)
		}
		return nil
	case *IfStmt:
		elseL := g.newLabel("else")
		endL := g.newLabel("endif")
		target := endL
		if st.Else != nil {
			target = elseL
		}
		if err := g.genBranch(st.Cond, target, false); err != nil {
			return err
		}
		if err := g.genStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			g.emit("br %s", endL)
			g.label(elseL)
			if err := g.genStmt(st.Else); err != nil {
				return err
			}
		}
		g.label(endL)
		return nil
	case *WhileStmt:
		top := g.newLabel("while")
		end := g.newLabel("endwhile")
		g.label(top)
		if err := g.genBranch(st.Cond, end, false); err != nil {
			return err
		}
		g.breakL = append(g.breakL, end)
		g.contL = append(g.contL, top)
		err := g.genStmt(st.Body)
		g.breakL = g.breakL[:len(g.breakL)-1]
		g.contL = g.contL[:len(g.contL)-1]
		if err != nil {
			return err
		}
		g.emit("br %s", top)
		g.label(end)
		return nil
	case *ForStmt:
		if st.Init != nil {
			if err := g.genStmt(st.Init); err != nil {
				return err
			}
		}
		top := g.newLabel("for")
		post := g.newLabel("forpost")
		end := g.newLabel("endfor")
		g.label(top)
		if st.Cond != nil {
			if err := g.genBranch(st.Cond, end, false); err != nil {
				return err
			}
		}
		g.breakL = append(g.breakL, end)
		g.contL = append(g.contL, post)
		err := g.genStmt(st.Body)
		g.breakL = g.breakL[:len(g.breakL)-1]
		g.contL = g.contL[:len(g.contL)-1]
		if err != nil {
			return err
		}
		g.label(post)
		if st.Post != nil {
			t, err := g.genExpr(st.Post)
			if err != nil {
				return err
			}
			if t >= 0 {
				g.pop(t)
			}
		}
		g.emit("br %s", top)
		g.label(end)
		return nil
	case *ReturnStmt:
		if st.X != nil {
			t, err := g.genExpr(st.X)
			if err != nil {
				return err
			}
			if g.spec(t) != "r0" {
				g.emit("movl %s, r0", g.spec(t))
			}
			g.pop(t)
		}
		g.emit("br Lret_%s", g.fn.Name)
		return nil
	case *BreakStmt:
		g.emit("br %s", g.breakL[len(g.breakL)-1])
		return nil
	case *ContinueStmt:
		g.emit("br %s", g.contL[len(g.contL)-1])
		return nil
	}
	return errorAt(0, "cisc: unknown statement %T", s)
}

// ---------- conditions ----------

var cxCondName = map[string]string{
	"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}
var cxCondNameU = map[string]string{
	"==": "eq", "!=": "ne", "<": "lo", "<=": "los", ">": "hi", ">=": "his",
}
var cxCondNeg = map[string]string{
	"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le",
	"lo": "his", "his": "lo", "los": "hi", "hi": "los",
}

func (g *ciscGen) genBranch(e Expr, label string, whenTrue bool) error {
	switch x := e.(type) {
	case *IntLit:
		if (x.Val != 0) == whenTrue {
			g.emit("br %s", label)
		}
		return nil
	case *Unary:
		if x.Op == "!" {
			return g.genBranch(x.X, label, !whenTrue)
		}
	case *Logic:
		if x.Op == "&&" {
			if whenTrue {
				skip := g.newLabel("and")
				if err := g.genBranch(x.X, skip, false); err != nil {
					return err
				}
				if err := g.genBranch(x.Y, label, true); err != nil {
					return err
				}
				g.label(skip)
				return nil
			}
			if err := g.genBranch(x.X, label, false); err != nil {
				return err
			}
			return g.genBranch(x.Y, label, false)
		}
		if whenTrue {
			if err := g.genBranch(x.X, label, true); err != nil {
				return err
			}
			return g.genBranch(x.Y, label, true)
		}
		skip := g.newLabel("or")
		if err := g.genBranch(x.X, skip, true); err != nil {
			return err
		}
		if err := g.genBranch(x.Y, label, false); err != nil {
			return err
		}
		g.label(skip)
		return nil
	case *Binary:
		names := cxCondName
		if x.X.TypeOf().Kind == TypePtr || x.Y.TypeOf().Kind == TypePtr {
			names = cxCondNameU
		}
		if cond, ok := names[x.Op]; ok {
			sx, tx, err := g.genOperand(x.X)
			if err != nil {
				return err
			}
			sy, ty, err := g.genOperand(x.Y)
			if err != nil {
				return err
			}
			// Re-query X's operand: evaluating Y may have spilled it.
			if tx >= 0 {
				sx = g.spec(tx)
			}
			g.emit("cmpl %s, %s", sx, sy)
			if ty >= 0 {
				g.pop(ty)
			}
			if tx >= 0 {
				g.pop(tx)
			}
			if !whenTrue {
				cond = cxCondNeg[cond]
			}
			g.emit("b%s %s", cond, label)
			return nil
		}
	}
	t, err := g.genExpr(e)
	if err != nil {
		return err
	}
	g.emit("tstl %s", g.spec(t))
	g.pop(t)
	if whenTrue {
		g.emit("bne %s", label)
	} else {
		g.emit("beq %s", label)
	}
	return nil
}
