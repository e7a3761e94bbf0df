// Package cc implements the Cm compiler: the small C dialect the benchmark
// suite is written in, with code generators for three targets — RISC I with
// register windows, RISC I without windows (the flat-register ablation), and
// the CX CISC comparator. One front end feeding three back ends mirrors the
// paper's methodology of compiling the same C benchmarks for every machine
// under comparison.
//
// Cm covers what the benchmarks need: int (32-bit signed) and char, pointers
// and arrays, global and local variables, the usual C expressions (including
// short-circuit && and ||), if/while/for/break/continue/return, function
// definitions with up to six parameters, string literals, and the output
// builtins putint and putchar.
package cc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokChar
	tokPunct   // operators and delimiters
	tokKeyword // int, char, if, ...
)

var keywords = map[string]bool{
	"int": true, "char": true, "void": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "break": true, "continue": true,
}

type token struct {
	text string
	num  int64 // value for tokNumber and tokChar
	line int32
	kind tokKind
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

// CompileError is a front-end diagnostic with a source line.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string { return fmt.Sprintf("cc: line %d: %s", e.Line, e.Msg) }

// punctLen returns the length of the operator or delimiter s starts with,
// longest first (a three-character operator shadows its prefixes), or 0
// when s starts with none.
func punctLen(s string) int {
	if len(s) >= 3 && (s[:3] == "<<=" || s[:3] == ">>=") {
		return 3
	}
	if len(s) >= 2 {
		switch s[:2] {
		case "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
			"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--":
			return 2
		}
	}
	if strings.IndexByte("+-*/%<>=!&|^~(){}[];,?:", s[0]) >= 0 {
		return 1
	}
	return 0
}

// lex tokenizes src.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/2+1) // Cm runs 2-3 source bytes a token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= len(src) {
				return nil, &CompileError{Line: line, Msg: "unterminated comment"}
			}
			i += 2
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && (isAlnum(src[j])) {
				j++
			}
			text := src[i:j]
			v, err := strconv.ParseInt(text, 0, 64)
			if err != nil || v >= 1<<32 { // 32-bit patterns only: 2^32 would wrap to 0
				return nil, &CompileError{Line: line, Msg: "bad number " + text}
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: v, line: int32(line)})
			i = j
		case isAlpha(c):
			j := i
			for j < len(src) && isAlnum(src[j]) {
				j++
			}
			text := src[i:j]
			kind := tokIdent
			if keywords[text] {
				kind = tokKeyword
			}
			toks = append(toks, token{kind: kind, text: text, line: int32(line)})
			i = j
		case c == '"':
			s, n, err := scanString(src[i:], line)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokString, text: s, line: int32(line)})
			i += n
		case c == '\'':
			v, n, err := scanChar(src[i:], line)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokChar, text: src[i : i+n], num: v, line: int32(line)})
			i += n
		default:
			n := punctLen(src[i:])
			if n == 0 {
				return nil, &CompileError{Line: line, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			toks = append(toks, token{kind: tokPunct, text: src[i : i+n], line: int32(line)})
			i += n
		}
	}
	toks = append(toks, token{kind: tokEOF, text: "", line: int32(line)})
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isAlnum(c byte) bool { return isAlpha(c) || c >= '0' && c <= '9' }

// scanString returns the decoded string body and the source length consumed.
func scanString(s string, line int) (string, int, error) {
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch c := s[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\n':
			return "", 0, &CompileError{Line: line, Msg: "newline in string literal"}
		case '\\':
			i++
			if i >= len(s) {
				return "", 0, &CompileError{Line: line, Msg: "unterminated string"}
			}
			d, err := unescape(s[i], line)
			if err != nil {
				return "", 0, err
			}
			b.WriteByte(d)
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", 0, &CompileError{Line: line, Msg: "unterminated string"}
}

func scanChar(s string, line int) (int64, int, error) {
	if len(s) >= 4 && s[1] == '\\' && s[3] == '\'' {
		d, err := unescape(s[2], line)
		return int64(d), 4, err
	}
	if len(s) >= 3 && s[2] == '\'' && s[1] != '\\' && s[1] != '\'' {
		return int64(s[1]), 3, nil
	}
	return 0, 0, &CompileError{Line: line, Msg: "bad character literal"}
}

func unescape(c byte, line int) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return c, nil
	}
	return 0, &CompileError{Line: line, Msg: fmt.Sprintf("unknown escape \\%c", c)}
}
