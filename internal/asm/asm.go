// Package asm implements a two-pass assembler for the RISC I instruction
// set, in the syntax printed by the isa disassembler, plus labels, data
// directives and a small set of pseudo-instructions (nop, mov, li, la, cmp,
// b<cond>). It is the assembly layer both for hand-written programs and for
// the Cm compiler's RISC back ends.
package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"risc1/internal/isa"
)

// Image is an assembled program: a contiguous byte image placed at Org, an
// entry point, the symbol table, and the source-line table that maps image
// addresses back to the assembly text they came from.
type Image struct {
	Org     uint32
	Bytes   []byte
	Entry   uint32
	Symbols map[string]uint32
	// Lines records, per assembled item, which 1-based source line emitted
	// the bytes at [Addr, Addr+Size). Sorted by Addr; LineFor queries it.
	// Diagnostics produced after assembly (the lint passes, runtime fault
	// reporters) use it to point at source rather than raw addresses.
	Lines []LineSpan
}

// LineSpan ties one address range of the image to its source line.
type LineSpan struct {
	Addr uint32
	Size uint32
	Line int
}

// Size returns the image size in bytes.
func (img *Image) Size() int { return len(img.Bytes) }

// Symbol looks up a label's address.
func (img *Image) Symbol(name string) (uint32, bool) {
	v, ok := img.Symbols[name]
	return v, ok
}

// LineFor returns the 1-based source line that emitted the byte at addr, or
// 0 when the address is outside every recorded span (e.g. .space padding of
// a hand-built image, or an image predating the line table).
func (img *Image) LineFor(addr uint32) int {
	lo, hi := 0, len(img.Lines)
	for lo < hi {
		mid := (lo + hi) / 2
		s := img.Lines[mid]
		switch {
		case addr < s.Addr:
			hi = mid
		case addr >= s.Addr+s.Size:
			lo = mid + 1
		default:
			return s.Line
		}
	}
	return 0
}

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	Line int
	Msg  string
	// OutOfRange marks a value that did not fit its encoding field (a 13- or
	// 19-bit immediate, or a relative target) — the only class of failure
	// that recompiling with wide addressing can fix.
	OutOfRange bool
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// IsOutOfRange reports whether err is (or aggregates only) out-of-range
// encoding diagnostics. Callers use it to decide whether a WideData
// recompile could succeed; retrying on any other error would just mask the
// original diagnostic behind a second, identical failure.
func IsOutOfRange(err error) bool {
	switch e := err.(type) {
	case *Error:
		return e.OutOfRange
	case ErrorList:
		for _, d := range e {
			if !d.OutOfRange {
				return false
			}
		}
		return len(e) > 0
	}
	return false
}

// ErrorList aggregates diagnostics so callers see every problem at once.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 1 {
		return l[0].Error()
	}
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return fmt.Sprintf("%d assembly errors:\n%s", len(l), strings.Join(msgs, "\n"))
}

// expr is a (possibly symbolic) constant: sym + off, or just off.
type expr struct {
	sym string
	off int64
}

func (e expr) isNum() bool { return e.sym == "" }

// operand is one parsed instruction operand.
type operand struct {
	isReg  bool
	reg    uint8
	isImm  bool // written with '#' or a bare expression
	imm    expr
	isAddr bool // (rN)S2 effective-address form
	base   uint8
	index  operand2
}

// operand2 is the S2 part of an address: register or immediate.
type operand2 struct {
	imm   expr
	isReg bool
	reg   uint8
}

// item is anything that occupies space in the image. The items of one
// assembly live in one slice, one item a statement, with instructions held
// in place so that a line allocates nothing of its own.
type item struct {
	line int32
	// srcLine, when nonzero, overrides line in the image's line table: a
	// ";@line N" marker redirected attribution to an originating source
	// line (the Cm compiler stamps its output this way). Diagnostics about
	// the assembly text itself still use line.
	srcLine int32
	addr    uint32
	space   uint32 // .space and .align padding
	// one of the instruction (inst.isInst), space, or:
	inst protoInst
	data *itemData
}

// itemData is the content of a data directive.
type itemData struct {
	bytes []byte // literal bytes (.byte/.half/.ascii/.asciz)
	words []expr // .word values, 4 bytes each
}

// protoInst is an instruction before symbol resolution.
type protoInst struct {
	// s2 is the S2 operand of the short formats; for the long formats
	// (useS2 false), s2.imm holds the 19-bit immediate or target.
	s2      operand2
	isInst  bool // the item is this instruction
	op      isa.Op
	scc     bool
	rd      uint8
	cond    isa.Cond
	hasCond bool
	rs1     uint8
	useS2   bool
	// relative marks the long formats' immediate as a PC-relative target
	// (label or absolute address expression): the encoder subtracts the
	// instruction address.
	relative bool
	// hiPart/loPart mark the two halves of li/la expansions: the encoder
	// computes the ldhi/add split of the resolved 32-bit value.
	hiPart bool
	loPart bool
}

type assembler struct {
	items   []item
	symbols map[string]uint32
	equs    map[string]int64
	entry   string
	// entryLine is where .entry appeared, so an undefined-entry diagnostic
	// can point at the directive instead of arriving line-less.
	entryLine int
	org       uint32
	orgSet    bool
	pc        uint32
	errs      ErrorList
	line      int
	// srcLine carries the current text line's ";@line N" marker (0 = none)
	// into the items it emits.
	srcLine int
	// opBuf and partBuf back each statement's operand list and its text
	// fields; neither outlives the statement, so one buffer serves every
	// line.
	opBuf   [3]operand
	partBuf [3]string
}

// Assemble runs both passes over src and returns the linked image.
func Assemble(src string) (*Image, error) {
	a := &assembler{symbols: map[string]uint32{}, equs: map[string]int64{}}
	// One line emits at most two items (li/la), and most emit one.
	a.items = make([]item, 0, strings.Count(src, "\n")+1)
	a.parse(src)
	if len(a.errs) > 0 {
		return nil, a.errs
	}
	img, err := a.encode()
	if err != nil {
		return nil, err
	}
	return img, nil
}

// MustAssemble is Assemble for tests and fixed internal programs.
func MustAssemble(src string) *Image {
	img, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return img
}

func (a *assembler) errorf(format string, args ...any) {
	a.errs = append(a.errs, &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)})
}

// ---------- pass 1: parse ----------

func (a *assembler) parse(src string) {
	for n, more := 1, true; more; n++ {
		var line string
		line, src, more = strings.Cut(src, "\n")
		a.line = n
		a.srcLine = 0
		if i := indexOutsideQuotes(line, ";"); i >= 0 {
			a.srcLine = parseLineMarker(line[i+1:])
			line = line[:i]
		}
		// Strip comments beginning with "//" too, but not inside quotes.
		if i := indexOutsideQuotes(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		for line != "" {
			// Labels: one or more "name:" prefixes.
			i := indexOutsideQuotes(line, ":")
			head := ""
			if i >= 0 {
				head = strings.TrimSpace(line[:i])
			}
			if i >= 0 && isIdent(head) {
				a.defineLabel(head)
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			a.statement(line)
			break
		}
	}
}

func (a *assembler) defineLabel(name string) {
	if _, dup := a.symbols[name]; dup {
		a.errorf("label %q redefined", name)
		return
	}
	if _, dup := a.equs[name]; dup {
		a.errorf("label %q conflicts with .equ", name)
		return
	}
	a.symbols[name] = a.pc
}

// parseLineMarker recognizes the "@line N" attribution marker in a comment
// and returns N, or 0 when the comment is ordinary prose.
func parseLineMarker(comment string) int {
	s := strings.TrimSpace(comment)
	if !strings.HasPrefix(s, "@line") {
		return 0
	}
	s = strings.TrimSpace(s[len("@line"):])
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0
	}
	return n
}

func (a *assembler) add(it item) {
	it.line = int32(a.line)
	it.srcLine = int32(a.srcLine)
	it.addr = a.pc
	a.pc += itemSize(&it)
	a.items = append(a.items, it)
}

// addInst adds an instruction item.
func (a *assembler) addInst(p protoInst) {
	p.isInst = true
	a.add(item{inst: p})
}

func (a *assembler) statement(line string) {
	mnemonic, rest := splitMnemonic(line)
	if strings.HasPrefix(mnemonic, ".") {
		a.directive(mnemonic, rest)
		return
	}
	scc := false
	if strings.HasSuffix(mnemonic, "!") {
		scc = true
		mnemonic = mnemonic[:len(mnemonic)-1]
	}
	ops, ok := a.parseOperands(rest)
	if !ok {
		return
	}
	if op, isReal := isa.ByName(mnemonic); isReal {
		a.realInst(op, scc, ops)
		return
	}
	a.pseudo(mnemonic, scc, ops)
}

func splitMnemonic(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return strings.ToLower(line), ""
	}
	return strings.ToLower(line[:i]), strings.TrimSpace(line[i+1:])
}

// parseOperands splits on top-level commas and parses each operand.
func (a *assembler) parseOperands(rest string) ([]operand, bool) {
	if rest == "" {
		return nil, true
	}
	parts, err := splitCommas(a.partBuf[:0], rest)
	if err != nil {
		a.errorf("%v", err)
		return nil, false
	}
	ops := a.opBuf[:0]
	for _, p := range parts {
		op, err := a.parseOperand(p)
		if err != nil {
			a.errorf("%v", err)
			return nil, false
		}
		ops = append(ops, op)
	}
	return ops, true
}

func (a *assembler) parseOperand(s string) (operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return operand{}, fmt.Errorf("empty operand")
	}
	if s[0] == '(' {
		// (rN)S2 address form.
		close := strings.IndexByte(s, ')')
		if close < 0 {
			return operand{}, fmt.Errorf("missing ')' in %q", s)
		}
		base, ok := regNum(strings.TrimSpace(s[1:close]))
		if !ok {
			return operand{}, fmt.Errorf("bad base register in %q", s)
		}
		idx, err := a.parseS2(strings.TrimSpace(s[close+1:]))
		if err != nil {
			return operand{}, err
		}
		return operand{isAddr: true, base: base, index: idx}, nil
	}
	if r, ok := regNum(s); ok {
		return operand{isReg: true, reg: r}, nil
	}
	e, err := a.parseExpr(strings.TrimPrefix(s, "#"))
	if err != nil {
		return operand{}, err
	}
	return operand{isImm: true, imm: e}, nil
}

func (a *assembler) parseS2(s string) (operand2, error) {
	if s == "" {
		return operand2{}, fmt.Errorf("missing offset after ')'")
	}
	if r, ok := regNum(s); ok {
		return operand2{isReg: true, reg: r}, nil
	}
	e, err := a.parseExpr(strings.TrimPrefix(s, "#"))
	if err != nil {
		return operand2{}, err
	}
	return operand2{imm: e}, nil
}

// parseExpr accepts NUM, 'c', SYM, SYM+NUM, SYM-NUM.
func (a *assembler) parseExpr(s string) (expr, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return expr{}, fmt.Errorf("empty expression")
	}
	if s[0] == '\'' {
		v, err := charLit(s)
		return expr{off: v}, err
	}
	if v, err := parseInt(s); err == nil {
		return expr{off: v}, nil
	}
	// SYM, SYM+N, SYM-N
	for _, sep := range []byte{'+', '-'} {
		if i := strings.LastIndexByte(s, sep); i > 0 {
			sym := strings.TrimSpace(s[:i])
			if !isIdent(sym) {
				continue
			}
			n, err := parseInt(strings.TrimSpace(s[i+1:]))
			if err != nil {
				return expr{}, fmt.Errorf("bad offset in %q", s)
			}
			if sep == '-' {
				n = -n
			}
			return a.symExpr(sym, n)
		}
	}
	if isIdent(s) {
		return a.symExpr(s, 0)
	}
	return expr{}, fmt.Errorf("cannot parse expression %q", s)
}

func (a *assembler) symExpr(sym string, off int64) (expr, error) {
	if v, ok := a.equs[sym]; ok {
		return expr{off: v + off}, nil
	}
	return expr{sym: sym, off: off}, nil
}

// errNotNumber rejects, without a strconv round trip, text that cannot
// start a number: parseExpr tries every symbol as a number first.
var errNotNumber = errors.New("not a number")

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if s == "" {
		return 0, errNotNumber
	}
	switch c := s[0]; {
	case isDigit(c) || c == '+' || c == '-':
	case c > ' ' && c < utf8.RuneSelf:
		return 0, errNotNumber // printable ASCII that cannot start a number
	}
	v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 32)
	if err != nil {
		// Also allow full-range negative decimals like -2147483648.
		if w, err2 := strconv.ParseInt(s, 0, 64); err2 == nil && w < 1<<32 {
			v = uint64(w)
		} else {
			return 0, err
		}
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, nil
}

func charLit(s string) (int64, error) {
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if body == `\n` {
			return '\n', nil
		}
		if body == `\t` {
			return '\t', nil
		}
		if body == `\\` {
			return '\\', nil
		}
		if body == `\'` {
			return '\'', nil
		}
		if len(body) == 1 {
			return int64(body[0]), nil
		}
	}
	return 0, fmt.Errorf("bad character literal %s", s)
}

func regNum(s string) (uint8, bool) {
	// Direct path for r0-r31 as the compiler writes them, and a quick no for
	// anything starting with another printable ASCII byte (a symbol).
	switch {
	case len(s) == 2 && s[0] == 'r' && isDigit(s[1]):
		return s[1] - '0', true
	case len(s) == 3 && s[0] == 'r' && s[1] >= '1' && s[1] <= '3' && isDigit(s[2]):
		if n := 10*(s[1]-'0') + s[2] - '0'; n <= 31 {
			return n, true
		}
		return 0, false
	case s != "" && s[0] > ' ' && s[0] < utf8.RuneSelf && s[0] != 'r' && s[0] != 'R':
		return 0, false
	}
	s = strings.ToLower(strings.TrimSpace(s))
	if len(s) < 2 || s[0] != 'r' {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, false
	}
	return uint8(n), true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

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
	// Avoid treating register names as symbols.
	if _, isReg := regNum(s); isReg {
		return false
	}
	return true
}

// splitCommas appends the top-level comma-separated fields of s to parts.
func splitCommas(parts []string, s string) ([]string, error) {
	depth, start, inQuote := 0, 0, byte(0)
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
		case c == '(':
			depth++
		case c == ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced ')'")
			}
		case c == ',' && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	if depth != 0 || inQuote != 0 {
		return nil, fmt.Errorf("unbalanced delimiter in %q", s)
	}
	parts = append(parts, s[start:])
	return parts, nil
}

func indexOutsideQuotes(s, sub string) int {
	if strings.IndexByte(s, '"') < 0 && strings.IndexByte(s, '\'') < 0 {
		return strings.Index(s, sub)
	}
	inQuote := byte(0)
	for i := 0; i+len(sub) <= len(s); i++ {
		c := s[i]
		if inQuote != 0 {
			if c == '\\' {
				i++
			} else if c == inQuote {
				inQuote = 0
			}
			continue
		}
		if c == '"' || c == '\'' {
			inQuote = c
			continue
		}
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
