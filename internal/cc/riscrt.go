package cc

import (
	"fmt"
	"strings"
)

// Software multiply/divide for RISC I, which (like the real chip) has no
// multiply or divide instructions: the compiler calls these routines, just
// as the Berkeley C compiler did. Each is generated for the active calling
// convention; the text depends on nothing else, so each convention's
// routines are expanded once (runtimes) rather than on every compile.
//
// The windowed variant keeps its state in LOCAL registers (private to the
// window). The flat variant must limit itself to the caller-saved scratch
// registers r10..r15 and its argument registers to stay leaf-cheap.

type rtRegs struct {
	a, b           string // arguments
	ret            string // result register
	t1, t2, t3, t4 string
	t5, t6         string
	link           string
}

func rtRegsFor(windowed bool) rtRegs {
	if windowed {
		return rtRegs{a: "r26", b: "r27", ret: "r26",
			t1: "r16", t2: "r17", t3: "r18", t4: "r19", t5: "r20", t6: "r21",
			link: "r25"}
	}
	return rtRegs{a: "r1", b: "r2", ret: "r1",
		t1: "r10", t2: "r11", t3: "r12", t4: "r13", t5: "r14", t6: "r15",
		link: "r25"}
}

// runtimeText is the expanded text of every runtime routine for one calling
// convention.
type runtimeText struct {
	mul, div, mod, spawn, join, lock, unlock string
}

// runtimes holds the routines for the flat (index 0) and the windowed
// (index 1) convention.
var runtimes = [2]runtimeText{newRuntimeText(rtRegsFor(false)), newRuntimeText(rtRegsFor(true))}

func newRuntimeText(r rtRegs) runtimeText {
	return runtimeText{
		mul:    runtimeMul(r),
		div:    runtimeDivMod(r, "__divsi", true),
		mod:    runtimeDivMod(r, "__modsi", false),
		spawn:  runtimeSpawn(r),
		join:   runtimeJoin(r),
		lock:   runtimeLock(r),
		unlock: runtimeUnlock(r),
	}
}

// runtimeMul emits __mulsi: shift-and-add, 32 iterations worst case.
// Works for signed operands because the product is taken mod 2^32.
func runtimeMul(r rtRegs) string {
	return expandRT(`
; ---- runtime: signed multiply ----
__mulsi:
	add r0,#0,{t1}          ; accumulator
	mov {a},{t2}            ; multiplicand
	mov {b},{t3}            ; multiplier
.Lmul_loop:
	cmp {t3},#0
	beq .Lmul_done
	nop
	and {t3},#1,{t4}
	cmp {t4},#0
	beq .Lmul_skip
	nop
	add {t1},{t2},{t1}
.Lmul_skip:
	sll {t2},#1,{t2}
	srl {t3},#1,{t3}
	b .Lmul_loop
	nop
.Lmul_done:
	mov {t1},{ret}
	ret {link},#8
	nop
`, r)
}

// runtimeDivMod emits __divsi or __modsi: sign-aware restoring division,
// truncating toward zero like C (and like CX's DIVL microcode).
func runtimeDivMod(r rtRegs, name string, isDiv bool) string {
	sign, res := "{t5}", "{t1}" // quotient sign, quotient
	if !isDiv {
		sign, res = "{t6}", "{t2}" // remainder sign, remainder
	}
	body := `
; ---- runtime: signed ` + map[bool]string{true: "divide", false: "remainder"}[isDiv] + ` ----
` + name + `:
	cmp {b},#0
	bne .L` + name + `_ok
	nop
	add r0,#0,{ret}         ; divide by zero yields zero
	ret {link},#8
	nop
.L` + name + `_ok:
	add r0,#0,{t5}          ; quotient-sign flag
	add r0,#0,{t6}          ; remainder-sign flag
	cmp {a},#0
	bge .L` + name + `_apos
	nop
	sub r0,{a},{a}
	xor {t5},#1,{t5}
	add r0,#1,{t6}
.L` + name + `_apos:
	cmp {b},#0
	bge .L` + name + `_bpos
	nop
	sub r0,{b},{b}
	xor {t5},#1,{t5}
.L` + name + `_bpos:
	add r0,#0,{t1}          ; quotient
	add r0,#0,{t2}          ; remainder
	add r0,#32,{t3}         ; bit counter
.L` + name + `_loop:
	sll {t2},#1,{t2}
	srl {a},#31,{t4}
	or {t2},{t4},{t2}
	sll {a},#1,{a}
	sll {t1},#1,{t1}
	cmp {t2},{b}
	blo .L` + name + `_next
	nop
	sub {t2},{b},{t2}
	or {t1},#1,{t1}
.L` + name + `_next:
	sub! {t3},#1,{t3}
	bne .L` + name + `_loop
	nop
	cmp ` + sign + `,#0
	beq .L` + name + `_pos
	nop
	sub r0,` + res + `,` + res + `
.L` + name + `_pos:
	mov ` + res + `,{ret}
	ret {link},#8
	nop
`
	return expandRT(body, r)
}

func expandRT(body string, r rtRegs) string {
	pairs := []string{
		"{a}", r.a, "{b}", r.b, "{ret}", r.ret,
		"{t1}", r.t1, "{t2}", r.t2, "{t3}", r.t3,
		"{t4}", r.t4, "{t5}", r.t5, "{t6}", r.t6,
		"{link}", r.link,
	}
	out := strings.NewReplacer(pairs...).Replace(body)
	if strings.Contains(out, "{") {
		panic(fmt.Sprintf("cc: unexpanded placeholder in runtime:\n%s", out))
	}
	return out
}
