package cc

// Statement parsing (phase B). Scopes nest per block; every local
// declaration is also recorded in the function's Locals list for the back
// ends to assign storage.

// pushScope opens a scope; its map is made by the first declaration in it,
// as most blocks declare nothing.
func (p *parser) pushScope() { p.scopes = append(p.scopes, nil) }
func (p *parser) popScope()  { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *parser) lookupVar(name string) *VarDecl {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i][name]; ok {
			return v
		}
	}
	return p.globals[name]
}

func (p *parser) declare(v *VarDecl) error {
	top := p.scopes[len(p.scopes)-1]
	if _, dup := top[v.Name]; dup {
		return p.errf("variable %q redeclared in this scope", v.Name)
	}
	if top == nil {
		top = map[string]*VarDecl{}
		p.scopes[len(p.scopes)-1] = top
	}
	top[v.Name] = v
	v.Seq = len(p.fn.Locals)
	p.fn.Locals = append(p.fn.Locals, v)
	return nil
}

func (p *parser) block() (*Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	p.pushScope()
	defer p.popScope()
	b := &Block{}
	for !p.accept("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	return b, nil
}

// statement parses one statement and stamps it with the source line it
// began on, so the back ends can attribute the code they emit.
func (p *parser) statement() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	line := p.line()
	s, err := p.bareStatement()
	if s != nil {
		switch st := s.(type) {
		case *ExprStmt:
			st.Line = line
		case *IfStmt:
			st.Line = line
		case *WhileStmt:
			st.Line = line
		case *ForStmt:
			st.Line = line
		}
	}
	return s, err
}

func (p *parser) bareStatement() (Stmt, error) {
	switch {
	case p.is("{"):
		return p.block()
	case p.accept(";"):
		return nil, nil
	case p.is("int") || p.is("char"):
		s, err := p.localDecl()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return s, nil
	case p.accept("if"):
		return p.ifStmt()
	case p.accept("while"):
		return p.whileStmt()
	case p.accept("for"):
		return p.forStmt()
	case p.accept("return"):
		return p.returnStmt()
	case p.is("break"):
		line := p.line()
		p.pos++
		if p.loopDepth == 0 {
			return nil, &CompileError{Line: line, Msg: "break outside a loop"}
		}
		return &BreakStmt{Line: line}, p.expect(";")
	case p.is("continue"):
		line := p.line()
		p.pos++
		if p.loopDepth == 0 {
			return nil, &CompileError{Line: line, Msg: "continue outside a loop"}
		}
		return &ContinueStmt{Line: line}, p.expect(";")
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: x}, p.expect(";")
	}
}

func (p *parser) localDecl() (Stmt, error) {
	base, err := p.baseType()
	if err != nil {
		return nil, err
	}
	typ, err := p.pointers(base)
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, p.errf("expected variable name")
	}
	name := p.next().text
	v := &VarDecl{Name: name, Type: typ, Line: p.line()}
	if p.accept("[") {
		n, err := p.constInt()
		if err != nil {
			return nil, err
		}
		if n <= 0 || n > 1<<16 {
			return nil, p.errf("bad array size %d", n)
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		v.Type = &Type{Kind: TypeArray, Elem: typ, Len: int(n)}
		v.AddrTaken = true // arrays live in memory
	}
	if err := p.declare(v); err != nil {
		return nil, err
	}
	d := &DeclStmt{Var: v}
	if p.accept("=") {
		if v.Type.Kind == TypeArray {
			return nil, p.errf("local arrays cannot have initializers")
		}
		x, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		d.Init, err = p.coerce(x, v.Type)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	cond = p.rvalue(cond)
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: then}
	if p.accept("else") {
		s.Else, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	cond = p.rvalue(cond)
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.loopDepth++
	body, err := p.statement()
	p.loopDepth--
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	p.pushScope() // a for-init declaration scopes to the loop
	defer p.popScope()
	s := &ForStmt{}
	var err error
	if !p.accept(";") {
		if p.is("int") || p.is("char") {
			s.Init, err = p.localDecl()
		} else {
			var x Expr
			x, err = p.expr()
			s.Init = &ExprStmt{X: x}
		}
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		s.Cond, err = p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = p.rvalue(s.Cond)
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.is(")") {
		s.Post, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.loopDepth++
	s.Body, err = p.statement()
	p.loopDepth--
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) returnStmt() (Stmt, error) {
	line := p.line()
	s := &ReturnStmt{Line: line}
	if p.accept(";") {
		if p.fn.Ret.Kind != TypeVoid {
			return nil, &CompileError{Line: line,
				Msg: "return needs a value in function " + p.fn.Name}
		}
		return s, nil
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.fn.Ret.Kind == TypeVoid {
		return nil, &CompileError{Line: line,
			Msg: "void function " + p.fn.Name + " returns a value"}
	}
	s.X, err = p.coerce(x, p.fn.Ret)
	if err != nil {
		return nil, err
	}
	return s, p.expect(";")
}
