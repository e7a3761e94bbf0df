package cisc

import (
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"risc1/internal/cc"
	"risc1/internal/prog"
)

// TestRandomBytesNeverPanic feeds CX random byte streams as code. The
// variable-length decoder must reject or execute every byte sequence
// without ever panicking — wild specifiers, truncated instructions,
// corrupted CALLS frames included.
func TestRandomBytesNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		c := New(Config{MemSize: 1 << 16, MaxCycles: 20000})
		code := make([]byte, 512)
		r.Read(code)
		// A plausible entry: mask word then random bytes.
		code[0], code[1] = 0, 0
		if err := c.Mem.LoadProgram(0, code); err != nil {
			t.Fatal(err)
		}
		img := &Image{Org: 0, Bytes: nil, Entry: 0, Symbols: map[string]uint32{}}
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		// Load cleared memory contents? No: Load only copies img.Bytes
		// (empty) — re-place the random code afterwards.
		if err := c.Mem.LoadProgram(0, code); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: panic: %v\ncode: % x", trial, p, code[:32])
				}
			}()
			_ = c.Run() // faults fine; panics not
		}()
	}
}

// FuzzExec is the native-fuzzing form of TestRandomBytesNeverPanic: the
// fuzzer mutates raw CX code bytes and the variable-length decoder must
// reject or execute every stream without panicking. Run continuously with
// `go test -fuzz=FuzzExec ./internal/cisc`.
func FuzzExec(f *testing.F) {
	f.Add([]byte{0x00, 0x00})
	seed := make([]byte, 64)
	rand.New(rand.NewSource(11)).Read(seed)
	seed[0], seed[1] = 0, 0 // mask word entry
	f.Add(seed)
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) < 2 || len(code) > 4096 {
			return
		}
		c := New(Config{MemSize: 1 << 16, MaxCycles: 20000})
		img := &Image{Org: 0, Bytes: nil, Entry: 0, Symbols: map[string]uint32{}}
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := c.Mem.LoadProgram(0, code); err != nil {
			return
		}
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("panic: %v\ncode: % x", p, code)
			}
		}()
		_ = c.Run() // faults fine; panics not
	})
}

// TestRandomFramePointerRET corrupts FP before a RET: the unwinder walks
// attacker-controlled memory and must fault cleanly.
func TestRandomFramePointerRET(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		img := MustAssemble("main: .mask\n ret\n")
		c := New(Config{MemSize: 1 << 16})
		if err := c.Load(img); err != nil {
			t.Fatal(err)
		}
		c.SetReg(FP, r.Uint32())
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: panic on corrupted FP: %v", trial, p)
				}
			}()
			_ = c.Run()
		}()
	}
}

// predecodeSeeds are programs that patch their own code, for
// FuzzCXPredecode: the programs of TestSelfModifyingCode,
// TestMemoInvalidationLastByte and TestSelfStoreOnFirstExecution.
var predecodeSeeds = []string{`
	main:	.mask
		clrl r1
		moval patch, r3
	patch:	addl2 #7, r1
		cmpl r1, #7
		bne done
		movb #99, 2(r3)
		br patch
	done:	ret
	`, `
	main:	.mask
		clrl r5
		moval patch, r3
		moval res2, r4
	patch:	addl3 #1000000, #2000000, @res1
	after:	cmpl r5, #1
		beq done
		movl #1, r5
		movb r4, 15(r3)
		br patch
	done:	movl @res1, r6
		movl @res2, r7
		ret
		.align 4
	res1:	.word 0
	res2:	.word 0
	`, `
	main:	.mask
		movl #2, r4
		moval patch, r3
		subl2 #12, r3
	patch:	movb #127, 16(r3)
		decl r4
		bne patch
		ret
	`}

// FuzzCXPredecode is the differential of the decoded instruction cache and
// the block tier built on it: every input runs once with both and once with
// the cache bypassed, so that every execution decodes from memory and
// single-steps. The two machines must agree on registers, flags, PC,
// console, every Stats field, the error and every Progress call. The input
// is a code image loaded at 0, its entry point, its __data_start (0: all
// code) and the microcycle budget less one, so that the budget runs out at
// block boundaries and inside blocks.
//
//	go test -fuzz=FuzzCXPredecode ./internal/cisc
func FuzzCXPredecode(f *testing.F) {
	for i, img := range compileSuite(f) {
		f.Add(img.Bytes, uint16(img.Entry), uint16(img.Symbols["__data_start"]), uint16(1<<16-1))
		f.Add(img.Bytes, uint16(img.Entry), uint16(img.Symbols["__data_start"]), uint16(997*i+500))
	}
	for _, src := range predecodeSeeds {
		img := MustAssemble(src)
		f.Add(img.Bytes, uint16(img.Entry), uint16(0), uint16(1<<16-1))
		f.Add(img.Bytes, uint16(img.Entry), uint16(0), uint16(60))
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		code := make([]byte, 256)
		r.Read(code)
		code[0], code[1] = 0, 0 // mask word entry
		f.Add(code, uint16(0), uint16(0), uint16(r.Intn(1<<16)))
	}
	f.Fuzz(func(t *testing.T, code []byte, entry, dataStart, budget uint16) {
		if len(code) < 2 || len(code) > 1<<15 || int(entry)+2 > len(code) {
			return
		}
		img := &Image{Bytes: code, Entry: uint32(entry), Symbols: map[string]uint32{}}
		if dataStart > 0 {
			img.Symbols["__data_start"] = uint32(dataStart)
		}
		run := func(noCache bool) (*CPU, string, []uint64) {
			c := New(Config{MemSize: 1 << 16, MaxCycles: uint64(budget) + 1})
			c.noCache = noCache
			if err := c.Load(img); err != nil {
				t.Fatalf("load: %v", err)
			}
			var progress []uint64
			c.Progress = func(instructions, cycles uint64) {
				progress = append(progress, instructions, cycles)
			}
			return c, renderOutcome(c, c.Run()), progress
		}
		cached, got, gotProgress := run(false)
		bypass, want, wantProgress := run(true)
		if got != want {
			t.Fatalf("outcome with the cache:\n%s\nbypassed:\n%s", got, want)
		}
		if cached.regs != bypass.regs || cached.flags != bypass.flags ||
			cached.pc != bypass.pc || cached.halted != bypass.halted {
			t.Fatalf("state with the cache: regs %v flags %+v pc %#x halted %v\nbypassed: regs %v flags %+v pc %#x halted %v",
				cached.regs, cached.flags, cached.pc, cached.halted,
				bypass.regs, bypass.flags, bypass.pc, bypass.halted)
		}
		if cached.Console() != bypass.Console() || !reflect.DeepEqual(cached.Stats(), bypass.Stats()) {
			t.Fatalf("console or Stats differ: %q vs %q", cached.Console(), bypass.Console())
		}
		if !reflect.DeepEqual(gotProgress, wantProgress) {
			t.Fatalf("Progress with the cache %v, bypassed %v", gotProgress, wantProgress)
		}
	})
}

// bigLiteral finds numeric literals; bigLayout uses it.
var bigLiteral = regexp.MustCompile(`[0-9][0-9A-Za-z_]*`)

// bigLayout reports whether src could ask for a huge image: a .space or
// .align with a literal of 64 KiB or more. The assembler builds such images
// faithfully, so the fuzzer leaves them alone to bound memory.
func bigLayout(src string) bool {
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

// FuzzAssemble feeds the CX assembler arbitrary text. No input may panic it,
// and on every line and comma-separated field the lexical fast paths must
// agree with the plain strconv/strings forms kept below. Seeds are the
// compiler's output for small kernels, cut into 24-line pieces: the fuzzer's
// minimizer is quadratic in input length. Run with
// `go test -fuzz=FuzzAssemble ./internal/cisc`.
func FuzzAssemble(f *testing.F) {
	for _, name := range []string{"fib", "acker", "hanoi", "search"} {
		k, _ := prog.ByName(name)
		res, err := cc.Compile(k.Source, cc.Options{Target: cc.CISC})
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.SplitAfter(res.Asm, "\n")
		for i := 0; i < len(lines); i += 24 {
			f.Add(strings.Join(lines[i:min(i+24, len(lines))], ""))
		}
	}
	f.Add(".org 0x40\nmain: .mask R2, r3\n\tMOVL #-5, R1 ; x\n\tmovl 4(ap), r14\n\tmovl @cell+4, (r1)[r15]\ncell: .word 4294967295, -7\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<11 || bigLayout(src) {
			return
		}
		if img, err := Assemble(src); err == nil {
			Disassemble(img)
		}
		for _, line := range strings.Split(src, "\n") {
			for _, c := range []byte{';', ':', ','} {
				if got, want := indexOutsideQuotes(line, c), refIndexOutsideQuotes(line, c); got != want {
					t.Fatalf("indexOutsideQuotes(%q, %q) = %d, want %d", line, c, got, want)
				}
			}
			for _, field := range append(strings.Split(line, ","), line) {
				for _, s := range []string{field, strings.TrimSpace(field), strings.TrimLeft(strings.TrimSpace(field), "#@")} {
					gv, gerr := parseNum(s)
					wv, werr := refParseNum(s)
					if gv != wv || (gerr == nil) != (werr == nil) {
						t.Fatalf("parseNum(%q) = %d, %v; want %d, %v", s, gv, gerr, wv, werr)
					}
					gr, gok := regName(s)
					wr, wok := refRegName(s)
					if gr != wr || gok != wok {
						t.Fatalf("regName(%q) = %d, %v; want %d, %v", s, gr, gok, wr, wok)
					}
				}
			}
		}
	})
}

// refParseNum is parseNum without the early rejection of non-numbers.
func refParseNum(s string) (int64, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = strings.TrimSpace(s[1:])
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

// refRegName is regName without the direct path.
func refRegName(s string) (uint8, bool) {
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

// refIndexOutsideQuotes is indexOutsideQuotes without the quote-free path.
func refIndexOutsideQuotes(s string, c byte) int {
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
