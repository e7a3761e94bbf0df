package cc

import (
	"fmt"
)

// Parse builds and type-checks a Cm program. Function bodies may reference
// functions defined later in the file: signatures are collected in a first
// phase, bodies parsed in a second.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.program()
}

type parser struct {
	toks []token
	pos  int

	prog    *Program
	funcs   map[string]*FuncDecl
	globals map[string]*VarDecl
	strings map[string]int

	// body-parsing state
	fn        *FuncDecl
	scopes    []map[string]*VarDecl
	loopDepth int

	// depth is how deeply the production being parsed nests (see enter).
	depth int
}

// maxNesting bounds how deeply statements, expressions and pointer types
// nest. The parser and both code generators recurse once per level, so the
// bound keeps a hostile source (a request body of half a million
// parentheses, say) from costing unbounded stack and time; real programs
// nest a few dozen levels at most.
const maxNesting = 1000

// enter descends one nesting level, and fails past maxNesting; leave
// climbs back.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		return p.nestingError()
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) nestingError() error {
	return p.errf("nesting deeper than %d levels", maxNesting)
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) line() int   { return int(p.cur().line) }

func (p *parser) errf(format string, args ...any) error {
	return &CompileError{Line: p.line(), Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) is(text string) bool { return p.cur().text == text && p.cur().kind != tokString }

func (p *parser) accept(text string) bool {
	if p.is(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %s", text, p.cur())
	}
	return nil
}

// ---------- phase A: top level ----------

func (p *parser) program() (*Program, error) {
	p.prog = &Program{}
	p.funcs = map[string]*FuncDecl{}
	p.globals = map[string]*VarDecl{}
	p.strings = map[string]int{}

	type pending struct {
		fn        *FuncDecl
		bodyStart int
	}
	var bodies []pending

	for p.cur().kind != tokEOF {
		base, err := p.baseType()
		if err != nil {
			return nil, err
		}
		typ, err := p.pointers(base)
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected a name, found %s", p.cur())
		}
		name := p.next().text

		if p.is("(") {
			fn := &FuncDecl{Name: name, Ret: typ, Line: p.line()}
			if err := p.paramList(fn); err != nil {
				return nil, err
			}
			if _, dup := p.funcs[name]; dup {
				return nil, p.errf("function %q redefined", name)
			}
			if _, dup := p.globals[name]; dup {
				return nil, p.errf("%q is already a global variable", name)
			}
			p.funcs[name] = fn
			p.prog.Funcs = append(p.prog.Funcs, fn)
			if !p.is("{") {
				return nil, p.errf("expected function body")
			}
			bodies = append(bodies, pending{fn, p.pos})
			if err := p.skipBlock(); err != nil {
				return nil, err
			}
			continue
		}

		if err := p.globalVar(name, typ); err != nil {
			return nil, err
		}
	}

	// ---------- phase B: bodies ----------
	for _, b := range bodies {
		p.pos = b.bodyStart
		p.fn = b.fn
		p.scopes = []map[string]*VarDecl{{}}
		for _, param := range b.fn.Params {
			p.scopes[0][param.Name] = param
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		b.fn.Body = body
		b.fn.IsLeaf = b.fn.MaxArgs == 0 && !p.callsAnything(b.fn)
	}
	if main, ok := p.funcs["main"]; !ok {
		return nil, &CompileError{Line: 1, Msg: "program has no main function"}
	} else if len(main.Params) != 0 {
		return nil, &CompileError{Line: main.Line, Msg: "main must take no parameters"}
	}
	return p.prog, nil
}

// callsAnything reports whether fn contains any Call (set during body
// parsing through the hasCalls flag on the decl).
func (p *parser) callsAnything(fn *FuncDecl) bool { return fn.hasCalls }

func (p *parser) baseType() (*Type, error) {
	switch {
	case p.accept("int"):
		return intType, nil
	case p.accept("char"):
		return charType, nil
	case p.accept("void"):
		return voidType, nil
	}
	return nil, p.errf("expected a type, found %s", p.cur())
}

// pointers applies the declaration's pointer stars to t; each one nests the
// type a level deeper.
func (p *parser) pointers(t *Type) (*Type, error) {
	for n := p.depth; p.accept("*"); n++ {
		if n >= maxNesting {
			return nil, p.nestingError()
		}
		t = ptrTo(t)
	}
	return t, nil
}

func (p *parser) paramList(fn *FuncDecl) error {
	if err := p.expect("("); err != nil {
		return err
	}
	if p.accept(")") {
		return nil
	}
	if p.is("void") && p.toks[p.pos+1].text == ")" {
		p.pos += 2
		return nil
	}
	for {
		base, err := p.baseType()
		if err != nil {
			return err
		}
		typ, err := p.pointers(base)
		if err != nil {
			return err
		}
		if typ.Kind == TypeVoid {
			return p.errf("parameter cannot be void")
		}
		if p.cur().kind != tokIdent {
			return p.errf("expected parameter name")
		}
		name := p.next().text
		if p.accept("[") { // T name[] is a pointer parameter
			if err := p.expect("]"); err != nil {
				return err
			}
			typ = ptrTo(typ)
		}
		for _, prev := range fn.Params {
			if prev.Name == name {
				return p.errf("duplicate parameter %q", name)
			}
		}
		fn.Params = append(fn.Params, &VarDecl{Name: name, Type: typ, Line: p.line()})
		if p.accept(")") {
			break
		}
		if err := p.expect(","); err != nil {
			return err
		}
	}
	if len(fn.Params) > MaxParams {
		return &CompileError{Line: fn.Line,
			Msg: fmt.Sprintf("function %q has %d parameters; the calling convention supports %d",
				fn.Name, len(fn.Params), MaxParams)}
	}
	return nil
}

// MaxParams is the calling-convention limit: six registers of incoming
// parameters (the register-window overlap size).
const MaxParams = 6

func (p *parser) skipBlock() error {
	if err := p.expect("{"); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		if p.cur().kind == tokEOF {
			return p.errf("unterminated function body")
		}
		t := p.next()
		switch {
		case t.text == "{" && t.kind == tokPunct:
			depth++
		case t.text == "}" && t.kind == tokPunct:
			depth--
		}
	}
	return nil
}

func (p *parser) globalVar(name string, typ *Type) error {
	if typ.Kind == TypeVoid {
		return p.errf("variable %q cannot be void", name)
	}
	v := &VarDecl{Name: name, Type: typ, Line: p.line(), IsGlobal: true}
	if p.accept("[") {
		if p.is("]") { // size from initializer
			p.pos++
			v.Type = &Type{Kind: TypeArray, Elem: typ, Len: -1}
		} else {
			n, err := p.constInt()
			if err != nil {
				return err
			}
			if n <= 0 || n > 1<<20 {
				return p.errf("bad array size %d", n)
			}
			if err := p.expect("]"); err != nil {
				return err
			}
			v.Type = &Type{Kind: TypeArray, Elem: typ, Len: int(n)}
		}
	}
	if p.accept("=") {
		if err := p.globalInit(v); err != nil {
			return err
		}
	}
	if v.Type.Kind == TypeArray && v.Type.Len == -1 {
		return p.errf("array %q has no size", name)
	}
	if _, dup := p.globals[name]; dup {
		return p.errf("global %q redefined", name)
	}
	if _, dup := p.funcs[name]; dup {
		return p.errf("%q is already a function", name)
	}
	p.globals[name] = v
	p.prog.Globals = append(p.prog.Globals, v)
	return p.expect(";")
}

func (p *parser) globalInit(v *VarDecl) error {
	v.HasInit = true
	switch {
	case p.cur().kind == tokString:
		if v.Type.Kind != TypeArray || v.Type.Elem.Kind != TypeChar {
			return p.errf("string initializer needs a char array")
		}
		s := p.next().text
		if v.Type.Len == -1 {
			v.Type = &Type{Kind: TypeArray, Elem: charType, Len: len(s) + 1}
		} else if len(s)+1 > v.Type.Len {
			return p.errf("string initializer too long for %q", v.Name)
		}
		v.InitString = s
		return nil
	case p.is("{"):
		if v.Type.Kind != TypeArray {
			return p.errf("brace initializer needs an array")
		}
		p.pos++
		for {
			n, err := p.constInt()
			if err != nil {
				return err
			}
			v.InitInts = append(v.InitInts, n)
			if p.accept("}") {
				break
			}
			if err := p.expect(","); err != nil {
				return err
			}
		}
		if v.Type.Len == -1 {
			v.Type = &Type{Kind: TypeArray, Elem: v.Type.Elem, Len: len(v.InitInts)}
		} else if len(v.InitInts) > v.Type.Len {
			return p.errf("too many initializers for %q", v.Name)
		}
		return nil
	default:
		if !v.Type.IsScalar() {
			return p.errf("scalar initializer for non-scalar %q", v.Name)
		}
		n, err := p.constInt()
		if err != nil {
			return err
		}
		v.InitInts = []int64{n}
		return nil
	}
}

func (p *parser) constInt() (int64, error) {
	neg := p.accept("-")
	t := p.cur()
	if t.kind != tokNumber && t.kind != tokChar {
		return 0, p.errf("expected a constant, found %s", t)
	}
	p.pos++
	if neg {
		return -t.num, nil
	}
	return t.num, nil
}
