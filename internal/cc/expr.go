package cc

import (
	"fmt"
	"strings"
)

// Expression parsing with integrated type checking. Precedence follows C.

func (p *parser) expr() (Expr, error) { return p.assignExpr() }

func (p *parser) assignExpr() (Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	op := p.cur().text
	switch op {
	case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
		if p.cur().kind != tokPunct {
			return lhs, nil
		}
		line := p.line()
		p.pos++
		if !isLvalue(lhs) {
			return nil, &CompileError{Line: line, Msg: "assignment to non-lvalue"}
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if op != "=" {
			// Compound assignment desugars to x = x op y. The lvalue
			// is shared between the two positions; Cm requires it to
			// be side-effect free (checked here).
			if hasSideEffects(lhs) {
				return nil, &CompileError{Line: line,
					Msg: "compound assignment needs a side-effect-free left side"}
			}
			rhs, err = p.binary(strings.TrimSuffix(op, "="), lhs, rhs, line)
			if err != nil {
				return nil, err
			}
		}
		rhs, err = p.coerce(rhs, lhs.TypeOf())
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase: exprBase{lhs.TypeOf()}, X: lhs, Y: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) condExpr() (Expr, error) {
	c, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return c, nil
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	c = p.rvalue(c)
	a, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	b, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	a, b = p.rvalue(a), p.rvalue(b)
	t := a.TypeOf()
	if t.Kind == TypeChar {
		t = intType
	}
	return &Cond{exprBase: exprBase{t}, C: c, A: a, B: b}, nil
}

// binaryPrec returns the precedence of the binary operator t spells, from
// 0 for || (the loosest) to 9 for * / %, and false when t is none.
func binaryPrec(t token) (int, bool) {
	if t.kind != tokPunct {
		return 0, false
	}
	switch t.text {
	case "||":
		return 0, true
	case "&&":
		return 1, true
	case "|":
		return 2, true
	case "^":
		return 3, true
	case "&":
		return 4, true
	case "==", "!=":
		return 5, true
	case "<", "<=", ">", ">=":
		return 6, true
	case "<<", ">>":
		return 7, true
	case "+", "-":
		return 8, true
	case "*", "/", "%":
		return 9, true
	}
	return 0, false
}

// binaryExpr parses a chain of binary operators of precedence minPrec or
// tighter, left associative, by precedence climbing: each operand is one
// unary expression, and only a tighter operator after it recurses. Every
// operator applied deepens the tree by one level, and counts toward the
// nesting limit until the chain ends.
func (p *parser) binaryExpr(minPrec int) (Expr, error) {
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	depth := p.depth
	defer func() { p.depth = depth }()
	for {
		prec, ok := binaryPrec(p.cur())
		if !ok || prec < minPrec {
			return x, nil
		}
		op := p.cur().text
		line := p.line()
		p.pos++
		if err := p.enter(); err != nil {
			return nil, err
		}
		y, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		if op == "&&" || op == "||" {
			x = &Logic{exprBase: exprBase{intType},
				Op: op, X: p.rvalue(x), Y: p.rvalue(y)}
			continue
		}
		x, err = p.binary(op, x, y, line)
		if err != nil {
			return nil, err
		}
	}
}

// binary type-checks one binary operation and builds the node.
func (p *parser) binary(op string, x, y Expr, line int) (Expr, error) {
	x, y = p.rvalue(x), p.rvalue(y)
	tx, ty := x.TypeOf(), y.TypeOf()
	fail := func(msg string) (Expr, error) {
		return nil, &CompileError{Line: line,
			Msg: "operator " + op + ": " + msg + " (" + tx.String() + ", " + ty.String() + ")"}
	}
	node := func(t *Type, scale int) Expr {
		return &Binary{exprBase: exprBase{t}, Op: op, X: x, Y: y, Scale: scale}
	}
	isArith := func(t *Type) bool { return t.Kind == TypeInt || t.Kind == TypeChar }

	switch op {
	case "+":
		switch {
		case isArith(tx) && isArith(ty):
			return node(intType, 0), nil
		case tx.Kind == TypePtr && isArith(ty):
			return node(tx, tx.Elem.Size()), nil
		case isArith(tx) && ty.Kind == TypePtr:
			x, y = y, x
			tx = x.TypeOf()
			return node(tx, tx.Elem.Size()), nil
		}
		return fail("bad operand types")
	case "-":
		switch {
		case isArith(tx) && isArith(ty):
			return node(intType, 0), nil
		case tx.Kind == TypePtr && isArith(ty):
			return node(tx, tx.Elem.Size()), nil
		case tx.Kind == TypePtr && ty.Kind == TypePtr && equalTypes(tx, ty):
			// Pointer difference: negative Scale asks codegen to
			// divide the byte difference by the element size.
			return node(intType, -tx.Elem.Size()), nil
		}
		return fail("bad operand types")
	case "==", "!=", "<", "<=", ">", ">=":
		ok := isArith(tx) && isArith(ty) ||
			tx.Kind == TypePtr && ty.Kind == TypePtr && equalTypes(tx, ty) ||
			tx.Kind == TypePtr && isZero(y) || ty.Kind == TypePtr && isZero(x)
		if !ok {
			return fail("cannot compare")
		}
		// Pointer comparisons are unsigned; sema records that by type.
		return node(intType, 0), nil
	default: // * / % << >> & ^ |
		if !isArith(tx) || !isArith(ty) {
			return fail("needs integer operands")
		}
		if op == "*" || op == "/" || op == "%" {
			// RISC I multiplies and divides in software: these lower
			// to runtime calls, so the function is not a leaf.
			if p.fn != nil {
				p.fn.hasCalls = true
				if p.fn.MaxArgs < 2 {
					p.fn.MaxArgs = 2
				}
			}
		}
		return node(intType, 0), nil
	}
}

// operand parses the operand of a unary operator, one level deeper.
func (p *parser) operand() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.unary()
}

func (p *parser) unary() (Expr, error) {
	line := p.line()
	switch {
	case p.accept("-"):
		x, err := p.operand()
		if err != nil {
			return nil, err
		}
		x = p.rvalue(x)
		if x.TypeOf().Kind == TypePtr {
			return nil, &CompileError{Line: line, Msg: "cannot negate a pointer"}
		}
		if lit, ok := x.(*IntLit); ok {
			return &IntLit{exprBase: exprBase{intType}, Val: -lit.Val}, nil
		}
		return &Unary{exprBase: exprBase{intType}, Op: "-", X: x}, nil
	case p.accept("!"):
		x, err := p.operand()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{intType}, Op: "!", X: p.rvalue(x)}, nil
	case p.accept("~"):
		x, err := p.operand()
		if err != nil {
			return nil, err
		}
		x = p.rvalue(x)
		if x.TypeOf().Kind == TypePtr {
			return nil, &CompileError{Line: line, Msg: "cannot complement a pointer"}
		}
		return &Unary{exprBase: exprBase{intType}, Op: "~", X: x}, nil
	case p.accept("*"):
		x, err := p.operand()
		if err != nil {
			return nil, err
		}
		x = p.rvalue(x)
		if x.TypeOf().Kind != TypePtr {
			return nil, &CompileError{Line: line, Msg: "cannot dereference a " + x.TypeOf().String()}
		}
		return &Unary{exprBase: exprBase{x.TypeOf().Elem}, Op: "*", X: x}, nil
	case p.accept("&"):
		x, err := p.operand()
		if err != nil {
			return nil, err
		}
		switch v := x.(type) {
		case *VarRef:
			v.Decl.AddrTaken = true
			if v.Decl.Type.Kind == TypeArray {
				return nil, &CompileError{Line: line,
					Msg: "&array is not supported; the array name is already its address"}
			}
			return &Unary{exprBase: exprBase{ptrTo(v.Decl.Type)}, Op: "&", X: x}, nil
		case *Index, *Unary:
			if u, ok := x.(*Unary); ok && u.Op != "*" {
				return nil, &CompileError{Line: line, Msg: "cannot take the address of this expression"}
			}
			return &Unary{exprBase: exprBase{ptrTo(x.TypeOf())}, Op: "&", X: x}, nil
		}
		return nil, &CompileError{Line: line, Msg: "cannot take the address of this expression"}
	case p.accept("++"), p.is("--"):
		op := "--"
		if p.toks[p.pos-1].text == "++" {
			op = "++"
		} else {
			p.pos++
		}
		x, err := p.operand()
		if err != nil {
			return nil, err
		}
		return p.incDec(x, op, false, line)
	}
	return p.postfix()
}

func (p *parser) incDec(x Expr, op string, post bool, line int) (Expr, error) {
	if !isLvalue(x) || !x.TypeOf().IsScalar() {
		return nil, &CompileError{Line: line, Msg: op + " needs a scalar lvalue"}
	}
	delta := 1
	if x.TypeOf().Kind == TypePtr {
		delta = x.TypeOf().Elem.Size()
	}
	if op == "--" {
		delta = -delta
	}
	t := x.TypeOf()
	if t.Kind == TypeChar {
		t = intType
	}
	return &IncDec{exprBase: exprBase{t}, X: x, Delta: delta, Post: post}, nil
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	// A chain of subscripts is as long as its base's pointer type is deep,
	// which the nesting limit on declarations bounds.
	for {
		line := p.line()
		switch {
		case p.accept("["):
			if err := p.enter(); err != nil {
				return nil, err
			}
			idx, err := p.expr()
			p.leave()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			base := p.rvalue(x)
			if base.TypeOf().Kind != TypePtr {
				return nil, &CompileError{Line: line,
					Msg: "cannot index a " + base.TypeOf().String()}
			}
			idx = p.rvalue(idx)
			if idx.TypeOf().Kind == TypePtr {
				return nil, &CompileError{Line: line, Msg: "index must be an integer"}
			}
			x = &Index{exprBase: exprBase{base.TypeOf().Elem}, Arr: base, Idx: idx}
		case p.accept("++"):
			x, err = p.incDec(x, "++", true, line)
			if err != nil {
				return nil, err
			}
		case p.accept("--"):
			x, err = p.incDec(x, "--", true, line)
			if err != nil {
				return nil, err
			}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber || t.kind == tokChar:
		p.pos++
		return &IntLit{exprBase: exprBase{intType}, Val: t.num}, nil
	case t.kind == tokString:
		p.pos++
		idx, ok := p.strings[t.text]
		if !ok {
			idx = len(p.prog.Strings)
			p.strings[t.text] = idx
			p.prog.Strings = append(p.prog.Strings, t.text)
		}
		return &StrLit{exprBase: exprBase{ptrTo(charType)}, Index: idx}, nil
	case p.accept("("):
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return x, p.expect(")")
	case t.kind == tokIdent:
		p.pos++
		if p.is("(") {
			return p.call(t.text, int(t.line))
		}
		v := p.lookupVar(t.text)
		if v == nil {
			return nil, &CompileError{Line: int(t.line), Msg: "undefined variable " + t.text}
		}
		typ := v.Type
		return &VarRef{exprBase: exprBase{typ}, Decl: v}, nil
	}
	return nil, p.errf("unexpected %s in expression", t)
}

func (p *parser) call(name string, line int) (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if name == "spawn" {
		return p.spawnCall(line)
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var args []Expr
	if !p.accept(")") {
		for {
			a, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.accept(")") {
				break
			}
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
	}
	p.fn.hasCalls = true
	if len(args) > p.fn.MaxArgs {
		p.fn.MaxArgs = len(args)
	}

	switch name {
	case "putint", "putchar", "join", "lock", "unlock":
		// One-scalar-argument builtins: console output, and the SMP
		// runtime surface (join a spawned worker, take/release one of the
		// hardware test-and-set locks).
		if len(args) != 1 {
			return nil, &CompileError{Line: line, Msg: name + " takes one argument"}
		}
		a := p.rvalue(args[0])
		if !a.TypeOf().IsScalar() {
			return nil, &CompileError{Line: line, Msg: name + " needs a scalar"}
		}
		return &Call{exprBase: exprBase{voidType}, Builtin: name,
			Args: []Expr{a}, Line: line}, nil
	case "coreid", "ncores":
		// SMP identity builtins: which core am I, how many are there.
		if len(args) != 0 {
			return nil, &CompileError{Line: line, Msg: name + " takes no arguments"}
		}
		return &Call{exprBase: exprBase{intType}, Builtin: name, Line: line}, nil
	}

	fn, ok := p.funcs[name]
	if !ok {
		return nil, &CompileError{Line: line, Msg: "undefined function " + name}
	}
	if len(args) != len(fn.Params) {
		return nil, &CompileError{Line: line, Msg: fmt.Sprintf(
			"%s takes %d arguments, got %d", name, len(fn.Params), len(args))}
	}
	for i := range args {
		a, err := p.coerce(p.rvalue(args[i]), fn.Params[i].Type)
		if err != nil {
			return nil, err
		}
		args[i] = a
	}
	return &Call{exprBase: exprBase{fn.Ret}, Func: fn, Args: args, Line: line}, nil
}

// spawnCall parses spawn(fn, arg): unlike every other call, the first
// argument is a function name — the language has no function pointers — so
// it resolves against the declared functions instead of parsing as a value.
// spawn yields the worker's join handle (int), or -1 when no core was free
// and the runtime ran fn inline on the calling core.
func (p *parser) spawnCall(line int) (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, &CompileError{Line: line, Msg: "spawn needs a function name"}
	}
	fn, ok := p.funcs[t.text]
	if !ok {
		return nil, &CompileError{Line: line, Msg: "spawn: undefined function " + t.text}
	}
	if len(fn.Params) != 1 || !fn.Params[0].Type.IsScalar() {
		return nil, &CompileError{Line: line,
			Msg: "spawn: " + t.text + " must take one scalar argument"}
	}
	if err := p.expect(","); err != nil {
		return nil, err
	}
	a, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	a = p.rvalue(a)
	if !a.TypeOf().IsScalar() {
		return nil, &CompileError{Line: line, Msg: "spawn needs a scalar argument"}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.fn.hasCalls = true
	if p.fn.MaxArgs < 2 {
		p.fn.MaxArgs = 2 // the runtime call __spawn(fn, arg) takes two
	}
	return &Call{exprBase: exprBase{intType}, Builtin: "spawn", Func: fn,
		Args: []Expr{a}, Line: line}, nil
}

// ---------- typing helpers ----------

// rvalue converts an expression to value context: arrays decay to pointers
// to their first element.
func (p *parser) rvalue(e Expr) Expr {
	if e.TypeOf().Kind == TypeArray {
		return &Unary{exprBase: exprBase{ptrTo(e.TypeOf().Elem)}, Op: "decay", X: e}
	}
	return e
}

// coerce checks that an rvalue is assignable to type want.
func (p *parser) coerce(e Expr, want *Type) (Expr, error) {
	e = p.rvalue(e)
	have := e.TypeOf()
	ok := false
	switch {
	case want.Kind == TypeInt || want.Kind == TypeChar:
		ok = have.Kind == TypeInt || have.Kind == TypeChar
	case want.Kind == TypePtr:
		ok = have.Kind == TypePtr && equalTypes(have, want) || isZero(e)
	}
	if !ok {
		return nil, p.errf("cannot use %s as %s", have, want)
	}
	return e, nil
}

func isLvalue(e Expr) bool {
	switch v := e.(type) {
	case *VarRef:
		return v.Decl.Type.Kind != TypeArray
	case *Index:
		return true
	case *Unary:
		return v.Op == "*"
	}
	return false
}

func isZero(e Expr) bool {
	lit, ok := e.(*IntLit)
	return ok && lit.Val == 0
}

// hasSideEffects reports whether evaluating e twice would misbehave.
func hasSideEffects(e Expr) bool {
	switch v := e.(type) {
	case nil:
		return false
	case *IntLit, *StrLit, *VarRef:
		return false
	case *Unary:
		return hasSideEffects(v.X)
	case *Binary:
		return hasSideEffects(v.X) || hasSideEffects(v.Y)
	case *Logic:
		return hasSideEffects(v.X) || hasSideEffects(v.Y)
	case *Index:
		return hasSideEffects(v.Arr) || hasSideEffects(v.Idx)
	case *Cond:
		return hasSideEffects(v.C) || hasSideEffects(v.A) || hasSideEffects(v.B)
	}
	return true // calls, assignments, inc/dec
}
