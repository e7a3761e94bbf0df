package cc

import "risc1/internal/isa"

// Statement generation for the RISC back end.

func (g *riscGen) genBlock(b *Block) error {
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *riscGen) genStmt(s Stmt) error {
	if ln := stmtLine(s); ln > 0 {
		g.curLine = ln
	}
	switch st := s.(type) {
	case *Block:
		return g.genBlock(st)
	case *DeclStmt:
		if st.Init == nil {
			return nil
		}
		return g.genStore(&VarRef{exprBase: exprBase{st.Var.Type}, Decl: st.Var}, st.Init)
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
			g.curLine = st.Line
			g.emit("b %s", endL)
			g.emit("nop")
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
		g.curLine = st.Line
		g.emit("b %s", top)
		g.emit("nop")
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
		g.curLine = st.Line
		if st.Post != nil {
			t, err := g.genExpr(st.Post)
			if err != nil {
				return err
			}
			if t >= 0 {
				g.pop(t)
			}
		}
		g.emit("b %s", top)
		g.emit("nop")
		g.label(end)
		return nil
	case *ReturnStmt:
		if st.X != nil {
			r, t, err := g.operandReg(st.X)
			if err != nil {
				return err
			}
			if r != g.conv.retOut {
				g.emit("mov r%d,r%d", r, g.conv.retOut)
			}
			if t >= 0 {
				g.pop(t)
			}
		}
		g.emit("b .Lret_%s", g.fn.Name)
		g.emit("nop")
		return nil
	case *BreakStmt:
		g.emit("b %s", g.breakL[len(g.breakL)-1])
		g.emit("nop")
		return nil
	case *ContinueStmt:
		g.emit("b %s", g.contL[len(g.contL)-1])
		g.emit("nop")
		return nil
	}
	return errorAt(0, "unknown statement %T", s)
}

// stmtLine is the source line a statement began on, 0 when unrecorded.
func stmtLine(s Stmt) int {
	switch st := s.(type) {
	case *DeclStmt:
		return st.Var.Line
	case *ExprStmt:
		return st.Line
	case *IfStmt:
		return st.Line
	case *WhileStmt:
		return st.Line
	case *ForStmt:
		return st.Line
	case *ReturnStmt:
		return st.Line
	case *BreakStmt:
		return st.Line
	case *ContinueStmt:
		return st.Line
	}
	return 0
}

// ---------- conditions ----------

// genBranch emits a branch to label taken when e's truth equals whenTrue.
func (g *riscGen) genBranch(e Expr, label string, whenTrue bool) error {
	switch x := e.(type) {
	case *IntLit:
		truth := x.Val != 0
		if truth == whenTrue {
			g.emit("b %s", label)
			g.emit("nop")
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
		// ||
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
		if cond, ok := comparisonCond(x); ok {
			if err := g.genCompare(x); err != nil {
				return err
			}
			if !whenTrue {
				cond = cond.Negate()
			}
			g.emit("b%s %s", cond.String(), label)
			g.emit("nop")
			return nil
		}
	}
	// General scalar truth test.
	r, t, err := g.operandReg(e)
	if err != nil {
		return err
	}
	g.emit("cmp r%d,#0", r)
	if t >= 0 {
		g.pop(t)
	}
	if whenTrue {
		g.emit("bne %s", label)
	} else {
		g.emit("beq %s", label)
	}
	g.emit("nop")
	return nil
}

// comparisonCond maps a comparison operator to the branch condition that is
// true when the comparison holds, choosing unsigned conditions for pointer
// comparisons.
func comparisonCond(b *Binary) (isa.Cond, bool) {
	unsigned := b.X.TypeOf().Kind == TypePtr || b.Y.TypeOf().Kind == TypePtr
	switch b.Op {
	case "==":
		return isa.CondEQ, true
	case "!=":
		return isa.CondNE, true
	case "<":
		if unsigned {
			return isa.CondLO, true
		}
		return isa.CondLT, true
	case "<=":
		if unsigned {
			return isa.CondLOS, true
		}
		return isa.CondLE, true
	case ">":
		if unsigned {
			return isa.CondHI, true
		}
		return isa.CondGT, true
	case ">=":
		if unsigned {
			return isa.CondHIS, true
		}
		return isa.CondGE, true
	}
	return 0, false
}

// genCompare emits `cmp x,s2` for a comparison node.
func (g *riscGen) genCompare(b *Binary) error {
	rx, tx, err := g.operandReg(b.X)
	if err != nil {
		return err
	}
	if tx >= 0 {
		g.pin(rx)
	}
	s2, ty, err := g.genS2(b.Y)
	if err != nil {
		return err
	}
	if tx >= 0 {
		g.unpin(g.reg(tx))
		rx = g.reg(tx) // re-query: evaluating Y may have spilled it
	}
	g.emit("cmp r%d,%s", rx, s2)
	if ty >= 0 {
		g.pop(ty)
	}
	if tx >= 0 {
		g.pop(tx)
	}
	return nil
}

// operandReg returns a register holding e's value. Register-resident locals
// and parameters are used in place — no copy — so the register is only
// valid until the next assignment or statement boundary; temps (tref >= 0)
// must be popped by the caller.
func (g *riscGen) operandReg(e Expr) (uint8, tref, error) {
	if v, ok := e.(*VarRef); ok {
		// Chars are stored pre-truncated, so their register is the value.
		if r, inReg := g.localReg[v.Decl]; inReg {
			return r, -1, nil
		}
	}
	t, err := g.genExpr(e)
	if err != nil {
		return 0, -1, err
	}
	return g.reg(t), t, nil
}

// genS2 produces the second ALU operand: a small literal becomes an
// immediate, a register-resident variable is used directly; anything else
// is evaluated into a temporary (returned so the caller can pop it; -1 when
// no temp was needed).
func (g *riscGen) genS2(e Expr) (string, tref, error) {
	if lit, ok := e.(*IntLit); ok &&
		lit.Val >= isa.MinImm13 && lit.Val <= isa.MaxImm13 {
		return immText(lit.Val), -1, nil
	}
	if v, ok := e.(*VarRef); ok {
		if r, inReg := g.localReg[v.Decl]; inReg {
			return regNames[r], -1, nil
		}
	}
	t, err := g.genExpr(e)
	if err != nil {
		return "", -1, err
	}
	return regNames[g.reg(t)], t, nil
}
