package cisc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Image is an assembled CX program.
type Image struct {
	Org     uint32
	Bytes   []byte
	Entry   uint32
	Symbols map[string]uint32
}

// Size returns the image size in bytes.
func (img *Image) Size() int { return len(img.Bytes) }

// Symbol looks up a label.
func (img *Image) Symbol(name string) (uint32, bool) {
	v, ok := img.Symbols[name]
	return v, ok
}

// AsmError is an assembly diagnostic.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("cisc/asm: line %d: %s", e.Line, e.Msg) }

// expr is a possibly-symbolic constant.
type expr struct {
	sym string
	off int64
}

func (e expr) isNum() bool { return e.sym == "" }

// spec is a parsed operand specifier.
type spec struct {
	mode  addrMode
	reg   uint8
	index uint8 // modeIndex*, the [Rx] register
	ext   expr  // displacement / immediate / absolute address
}

// item is anything that occupies space in the image: an instruction,
// padding, or the content of a data directive.
type item struct {
	line   int32
	addr   uint32
	space  uint32 // .space and .align padding
	op     Op
	isInst bool
	count  uint8  // opdCount operand
	specs  []spec // a window of casm.specs
	disp   expr   // branch target (opdDisp)
	data   *itemData
}

// itemData is the content of a data directive.
type itemData struct {
	bytes []byte // literal bytes (.byte/.ascii/.asciz/.mask)
	words []expr // .word values, 4 bytes each
}

type casm struct {
	items   []item
	symbols map[string]uint32
	equs    map[string]int64
	entry   string
	org     uint32
	orgSet  bool
	pc      uint32
	errs    []error
	line    int
	// specs holds the operand specifiers of every instruction, in order;
	// each item's specs is its window of it, so a statement allocates
	// nothing of its own.
	specs []spec
	// partBuf backs each statement's operand fields, which do not outlive
	// the statement.
	partBuf [3]string
}

// Assemble builds a CX image from source.
func Assemble(src string) (*Image, error) {
	a := &casm{symbols: map[string]uint32{}, equs: map[string]int64{}}
	lines := strings.Count(src, "\n") + 1
	a.items = make([]item, 0, lines) // at most one item a line
	a.specs = make([]spec, 0, lines)
	a.parse(src)
	if len(a.errs) > 0 {
		return nil, a.joined()
	}
	return a.encode()
}

// MustAssemble is Assemble for tests and fixed programs.
func MustAssemble(src string) *Image {
	img, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return img
}

func (a *casm) joined() error {
	if len(a.errs) == 1 {
		return a.errs[0]
	}
	msgs := make([]string, len(a.errs))
	for i, e := range a.errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("%d assembly errors:\n%s", len(a.errs), strings.Join(msgs, "\n"))
}

func (a *casm) errorf(format string, args ...any) {
	a.errs = append(a.errs, &AsmError{Line: a.line, Msg: fmt.Sprintf(format, args...)})
}

func (a *casm) parse(src string) {
	for n, more := 1, true; more; n++ {
		var line string
		line, src, more = strings.Cut(src, "\n")
		a.line = n
		if i := indexOutsideQuotes(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		for line != "" {
			if i := strings.IndexByte(line, ':'); i >= 0 && isIdent(strings.TrimSpace(line[:i])) {
				name := strings.TrimSpace(line[:i])
				if _, dup := a.symbols[name]; dup {
					a.errorf("label %q redefined", name)
				} else {
					a.symbols[name] = a.pc
				}
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			a.statement(line)
			break
		}
	}
}

func (a *casm) add(it item) {
	it.line = int32(a.line)
	it.addr = a.pc
	a.pc += uint32(itemSize(&it))
	a.items = append(a.items, it)
}

func itemSize(it *item) int {
	switch {
	case it.isInst:
		n := 1
		info := opTable[it.op]
		for i, kind := range info.operands {
			switch kind {
			case opdDisp:
				n += 2
			case opdCount:
				n++
			default:
				n += specSize(it.specs[specIndex(info, i)].mode)
			}
		}
		return n
	case it.data != nil:
		return 4*len(it.data.words) + len(it.data.bytes)
	default:
		return int(it.space)
	}
}

// specIndex maps operand position to index within item.specs (skipping
// disp/count operands, which are stored separately).
func specIndex(info opInfo, pos int) int {
	idx := 0
	for i := 0; i < pos; i++ {
		if info.operands[i] != opdDisp && info.operands[i] != opdCount {
			idx++
		}
	}
	return idx
}

func (a *casm) statement(line string) {
	mnemonic, rest := splitFirst(line)
	if strings.HasPrefix(mnemonic, ".") {
		a.directive(mnemonic, rest)
		return
	}
	op, ok := ByName(mnemonic)
	if !ok {
		a.errorf("unknown mnemonic %q", mnemonic)
		return
	}
	info := opTable[op]
	var parts []string
	if rest != "" {
		parts = splitTop(a.partBuf[:0], rest)
	}
	if len(parts) != len(info.operands) {
		a.errorf("%s takes %d operands, got %d", op, len(info.operands), len(parts))
		return
	}
	it := item{op: op, isInst: true}
	first := len(a.specs)
	for i, kind := range info.operands {
		text := strings.TrimSpace(parts[i])
		switch kind {
		case opdDisp:
			e, err := a.parseExpr(strings.TrimPrefix(text, "#"))
			if err != nil {
				a.errorf("%s: %v", op, err)
				return
			}
			it.disp = e
		case opdCount:
			e, err := a.parseExpr(strings.TrimPrefix(text, "#"))
			if err != nil || !e.isNum() || e.off < 0 || e.off > 255 {
				a.errorf("%s: bad count %q", op, text)
				return
			}
			it.count = uint8(e.off)
		default:
			s, err := a.parseSpec(text)
			if err != nil {
				a.errorf("%s: %v", op, err)
				return
			}
			if (kind == opdWrite || kind == opdRW) &&
				(s.mode == modeImm8 || s.mode == modeImm32) {
				a.errorf("%s: immediate used as destination", op)
				return
			}
			a.specs = append(a.specs, s)
		}
	}
	it.specs = a.specs[first:len(a.specs):len(a.specs)]
	a.add(it)
}

// parseSpec parses one operand specifier:
//
//	rN / ap / fp / sp      register
//	(rN)                   register deferred
//	d(rN)                  displacement (8- or 32-bit chosen by value)
//	#expr                  immediate
//	@expr                  absolute
//	(rN)[rX]               indexed, longword scale
//	(rN)[rX.b]             indexed, byte scale
//	symbol                 absolute (same as @symbol)
func (a *casm) parseSpec(s string) (spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return spec{}, fmt.Errorf("empty operand")
	}
	if r, ok := regName(s); ok {
		return spec{mode: modeReg, reg: r}, nil
	}
	if s[0] == '#' {
		e, err := a.parseExpr(s[1:])
		if err != nil {
			return spec{}, err
		}
		if e.isNum() && e.off >= -128 && e.off <= 127 {
			return spec{mode: modeImm8, ext: e}, nil
		}
		return spec{mode: modeImm32, ext: e}, nil
	}
	if s[0] == '@' {
		e, err := a.parseExpr(s[1:])
		if err != nil {
			return spec{}, err
		}
		return spec{mode: modeAbs, ext: e}, nil
	}
	// Indexed: (rN)[rX] or (rN)[rX.b]
	if strings.HasSuffix(s, "]") {
		open := strings.LastIndexByte(s, '[')
		if open < 0 {
			return spec{}, fmt.Errorf("bad indexed operand %q", s)
		}
		idxName := strings.TrimSpace(s[open+1 : len(s)-1])
		mode := modeIndex
		if strings.HasSuffix(idxName, ".b") {
			mode = modeIndexB
			idxName = strings.TrimSuffix(idxName, ".b")
		}
		idx, ok := regName(idxName)
		if !ok {
			return spec{}, fmt.Errorf("bad index register in %q", s)
		}
		base := strings.TrimSpace(s[:open])
		if !strings.HasPrefix(base, "(") || !strings.HasSuffix(base, ")") {
			return spec{}, fmt.Errorf("indexed operand needs (rN) base in %q", s)
		}
		r, ok := regName(strings.TrimSpace(base[1 : len(base)-1]))
		if !ok {
			return spec{}, fmt.Errorf("bad base register in %q", s)
		}
		return spec{mode: mode, reg: r, index: idx}, nil
	}
	// (rN) or d(rN)
	if strings.HasSuffix(s, ")") {
		open := strings.LastIndexByte(s, '(')
		if open < 0 {
			return spec{}, fmt.Errorf("bad operand %q", s)
		}
		r, ok := regName(strings.TrimSpace(s[open+1 : len(s)-1]))
		if !ok {
			return spec{}, fmt.Errorf("bad register in %q", s)
		}
		dispText := strings.TrimSpace(s[:open])
		if dispText == "" {
			return spec{mode: modeDeref, reg: r}, nil
		}
		e, err := a.parseExpr(dispText)
		if err != nil {
			return spec{}, err
		}
		if e.isNum() && e.off >= -128 && e.off <= 127 {
			return spec{mode: modeDisp8, reg: r, ext: e}, nil
		}
		return spec{mode: modeDisp32, reg: r, ext: e}, nil
	}
	// Bare symbol: absolute reference.
	if isIdent(s) || isIdentPlus(s) {
		e, err := a.parseExpr(s)
		if err != nil {
			return spec{}, err
		}
		return spec{mode: modeAbs, ext: e}, nil
	}
	return spec{}, fmt.Errorf("cannot parse operand %q", s)
}

func (a *casm) parseExpr(s string) (expr, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return expr{}, fmt.Errorf("empty expression")
	}
	if s[0] == '\'' {
		if len(s) == 3 && s[2] == '\'' {
			return expr{off: int64(s[1])}, nil
		}
		switch s {
		case `'\n'`:
			return expr{off: '\n'}, nil
		case `'\t'`:
			return expr{off: '\t'}, nil
		case `'\0'`:
			return expr{off: 0}, nil
		}
		return expr{}, fmt.Errorf("bad character literal %s", s)
	}
	if v, err := parseNum(s); err == nil {
		return expr{off: v}, nil
	}
	for _, sep := range []byte{'+', '-'} {
		if i := strings.LastIndexByte(s, sep); i > 0 {
			sym := strings.TrimSpace(s[:i])
			if !isIdent(sym) {
				continue
			}
			n, err := parseNum(strings.TrimSpace(s[i+1:]))
			if err != nil {
				return expr{}, fmt.Errorf("bad offset in %q", s)
			}
			if sep == '-' {
				n = -n
			}
			if v, ok := a.equs[sym]; ok {
				return expr{off: v + n}, nil
			}
			return expr{sym: sym, off: n}, nil
		}
	}
	if isIdent(s) {
		if v, ok := a.equs[s]; ok {
			return expr{off: v}, nil
		}
		return expr{sym: s}, nil
	}
	return expr{}, fmt.Errorf("cannot parse expression %q", s)
}

// errNotNumber rejects, without a strconv round trip, text that cannot be
// a number: parseExpr tries every symbol as a number first.
var errNotNumber = errors.New("not a number")

func parseNum(s string) (int64, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = strings.TrimSpace(s[1:])
	}
	if s == "" || s[0] < '0' || s[0] > '9' {
		return 0, errNotNumber // every number starts with a digit
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, err
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, nil
}

func regName(s string) (uint8, bool) {
	// Direct path for rN as the compiler writes it, and a quick no for
	// operands that start with another printable ASCII byte (#imm, @abs,
	// d(rN), symbols) and so cannot name a register.
	switch {
	case len(s) == 2 && s[0] == 'r' && s[1] >= '0' && s[1] <= '9':
		return s[1] - '0', true
	case len(s) == 3 && s[0] == 'r' && s[1] >= '1' && s[1] <= '9' && s[2] >= '0' && s[2] <= '9':
		if n := 10*(s[1]-'0') + s[2] - '0'; n < NumRegs {
			return n, true
		}
		return 0, false
	case s != "" && s[0] > ' ' && s[0] < utf8.RuneSelf && strings.IndexByte("rRaAfFsS", s[0]) < 0:
		return 0, false
	}
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ap":
		return AP, true
	case "fp":
		return FP, true
	case "sp":
		return SP, true
	}
	s = strings.ToLower(strings.TrimSpace(s))
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < NumRegs {
			return uint8(n), true
		}
	}
	return 0, false
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c == '.':
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	if _, isReg := regName(s); isReg {
		return false
	}
	return true
}

func isIdentPlus(s string) bool {
	for _, sep := range []byte{'+', '-'} {
		if i := strings.LastIndexByte(s, sep); i > 0 && isIdent(strings.TrimSpace(s[:i])) {
			return true
		}
	}
	return false
}

func splitFirst(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return strings.ToLower(line), ""
	}
	return strings.ToLower(line[:i]), strings.TrimSpace(line[i+1:])
}

// indexOutsideQuotes finds the first occurrence of c outside string or
// character literals (so ';' inside ".asciz" data is not a comment).
func indexOutsideQuotes(s string, c byte) int {
	if strings.IndexByte(s, '"') < 0 && strings.IndexByte(s, '\'') < 0 {
		return strings.IndexByte(s, c)
	}
	inQuote := byte(0)
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if inQuote != 0 {
			if ch == '\\' {
				i++
			} else if ch == inQuote {
				inQuote = 0
			}
			continue
		}
		if ch == '"' || ch == '\'' {
			inQuote = ch
			continue
		}
		if ch == c {
			return i
		}
	}
	return -1
}

// splitTop appends the fields of s, split on commas outside
// brackets/parens/quotes, to parts.
func splitTop(parts []string, s string) []string {
	depth, start := 0, 0
	inQuote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			if c == '\\' {
				i++
			} else if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == ',' && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return parts
}
