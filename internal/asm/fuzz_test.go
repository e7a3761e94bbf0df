package asm_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/prog"
)

// bigLiteral finds numeric literals; guardBigLayout uses it.
var bigLiteral = regexp.MustCompile(`[0-9][0-9A-Za-z_]*`)

// guardBigLayout reports whether src could ask for a huge image: a .space
// or .align with a literal of 64 KiB or more. The assembler builds such
// images faithfully, so the fuzzer leaves them alone to bound memory.
func guardBigLayout(src string) bool {
	low := strings.ToLower(src)
	if !strings.Contains(low, ".space") && !strings.Contains(low, ".align") {
		return false
	}
	for _, lit := range bigLiteral.FindAllString(src, -1) {
		if v, err := strconv.ParseUint(lit, 0, 64); (err != nil && len(lit) > 4) || v >= 1<<16 {
			return true
		}
	}
	return false
}

// FuzzAssemble feeds the assembler arbitrary text. No input may panic it,
// and on every line and comma-separated field the lexical fast paths must
// agree with the plain strconv/strings forms kept below. Seeds are the
// compiler's output for small kernels in each addressing mode, cut into
// 24-line pieces: the fuzzer's minimizer is quadratic in input length.
// Run with `go test -fuzz=FuzzAssemble ./internal/asm`.
func FuzzAssemble(f *testing.F) {
	for _, name := range []string{"fib", "acker", "hanoi", "search"} {
		k, _ := prog.ByName(name)
		for _, opts := range []cc.Options{
			{Target: cc.RISCWindowed},
			{Target: cc.RISCWindowed, WideData: true},
			{Target: cc.RISCFlat, NoDelaySlotFill: true},
		} {
			res, err := cc.Compile(k.Source, opts)
			if err != nil {
				f.Fatal(err)
			}
			lines := strings.SplitAfter(res.Asm, "\n")
			for i := 0; i < len(lines); i += 24 {
				f.Add(strings.Join(lines[i:min(i+24, len(lines))], ""))
			}
		}
	}
	f.Add(".org 0x100\n.entry go\nR1: .word -2147483648, +7, 0x_10, 4294967295\ngo: LI #4294967296,R31 ; c\n\tmov r05,r1\n")
	f.Add("s: .asciz \"a;b//c:d\\\"\" // x\n.byte ';', '\\''\n.equ k, -5\nadd r1,#k,r2\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<11 || guardBigLayout(src) {
			return
		}
		if img, err := asm.Assemble(src); err == nil {
			asm.Disassemble(img)
		}
		for _, line := range strings.Split(src, "\n") {
			for _, sub := range []string{";", "//", ":", ","} {
				if got, want := asm.IndexOutsideQuotes(line, sub), refIndexOutsideQuotes(line, sub); got != want {
					t.Fatalf("indexOutsideQuotes(%q, %q) = %d, want %d", line, sub, got, want)
				}
			}
			for _, field := range append(strings.Split(line, ","), line) {
				for _, s := range []string{field, strings.TrimSpace(field), strings.TrimPrefix(strings.TrimSpace(field), "#")} {
					gv, gerr := asm.ParseInt(s)
					wv, werr := refParseInt(s)
					if gv != wv || (gerr == nil) != (werr == nil) {
						t.Fatalf("parseInt(%q) = %d, %v; want %d, %v", s, gv, gerr, wv, werr)
					}
					gr, gok := asm.RegNum(s)
					wr, wok := refRegNum(s)
					if gr != wr || gok != wok {
						t.Fatalf("regNum(%q) = %d, %v; want %d, %v", s, gr, gok, wr, wok)
					}
				}
			}
		}
	})
}

// refParseInt is parseInt without the early rejection of non-numbers.
func refParseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 32)
	if err != nil {
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

// refRegNum is regNum without the direct path.
func refRegNum(s string) (uint8, bool) {
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

// refIndexOutsideQuotes is indexOutsideQuotes without the quote-free path.
func refIndexOutsideQuotes(s, sub string) int {
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
