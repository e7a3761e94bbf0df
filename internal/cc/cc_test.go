package cc_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/core"
)

// runTarget compiles and runs src on one target, returning console output.
func runTarget(t *testing.T, src string, target cc.Target) string {
	t.Helper()
	res, err := cc.Compile(src, cc.Options{Target: target})
	if err != nil {
		t.Fatalf("%v: compile: %v", target, err)
	}
	switch target {
	case cc.CISC:
		img, err := cisc.Assemble(res.Asm)
		if err != nil {
			t.Fatalf("cisc assemble: %v\n%s", err, numbered(res.Asm))
		}
		m := cisc.New(cisc.Config{})
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("cisc run: %v\n%s", err, numbered(res.Asm))
		}
		return m.Console()
	default:
		img, err := asm.Assemble(res.Asm)
		if err != nil {
			t.Fatalf("%v assemble: %v\n%s", target, err, numbered(res.Asm))
		}
		m := core.New(core.Config{Flat: target == cc.RISCFlat})
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%v run: %v\n%s", target, err, numbered(res.Asm))
		}
		return m.Console()
	}
}

func numbered(src string) string {
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "%4d| %s\n", i+1, l)
	}
	return b.String()
}

var allTargets = []cc.Target{cc.RISCWindowed, cc.RISCFlat, cc.CISC}

// checkAll runs src on all three targets and requires identical output.
func checkAll(t *testing.T, src, want string) {
	t.Helper()
	for _, target := range allTargets {
		if got := runTarget(t, src, target); got != want {
			t.Errorf("%v: output %q, want %q", target, got, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	checkAll(t, `
int main() {
	putint(2 + 3 * 4 - 6 / 2);     // 11
	putchar(' ');
	putint((7 & 3) | (8 ^ 1));     // 3 | 9 = 11
	putchar(' ');
	putint(1 << 10);               // 1024
	putchar(' ');
	putint(-20 >> 2);              // -5
	putchar(' ');
	putint(~0);                    // -1
	return 0;
}`, "11 11 1024 -5 -1")
}

func TestDivModSigns(t *testing.T) {
	// C semantics: division truncates toward zero; remainder follows the
	// dividend. RISC uses the software routines, CX the hardware divide —
	// they must agree exactly.
	checkAll(t, `
int main() {
	putint(7 / 2); putchar(' ');
	putint(-7 / 2); putchar(' ');
	putint(7 / -2); putchar(' ');
	putint(-7 / -2); putchar(' ');
	putint(7 % 3); putchar(' ');
	putint(-7 % 3); putchar(' ');
	putint(7 % -3); putchar(' ');
	putint(-7 % -3);
	return 0;
}`, "3 -3 -3 3 1 -1 1 -1")
}

func TestMultiplyRange(t *testing.T) {
	big := int64(46341) * 46341 // wraps when truncated to 32 bits
	checkAll(t, `
int main() {
	putint(123 * 456); putchar(' ');
	putint(-50 * 37); putchar(' ');
	putint(46341 * 46341);   // overflows 32 bits: wraps like C
	return 0;
}`, fmt.Sprintf("56088 -1850 %d", int32(big)))
}

func TestControlFlow(t *testing.T) {
	checkAll(t, `
int main() {
	int i; int sum;
	sum = 0;
	for (i = 1; i <= 10; i++) sum = sum + i;
	putint(sum); putchar(' ');
	i = 0;
	while (i < 5) { i++; if (i == 3) continue; putint(i); }
	putchar(' ');
	for (;;) { break; }
	if (sum > 50 && i == 5 || 0) putint(1); else putint(0);
	return 0;
}`, "55 1245 1")
}

func TestRecursionFibonacci(t *testing.T) {
	checkAll(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() { putint(fib(15)); return 0; }`, "610")
}

func TestDeepRecursionWindows(t *testing.T) {
	// Depth 100 forces window overflow traps on the windowed RISC.
	checkAll(t, `
int sum(int n) {
	if (n <= 0) return 0;
	return n + sum(n - 1);
}
int main() { putint(sum(100)); return 0; }`, "5050")
}

func TestGlobalsAndArrays(t *testing.T) {
	checkAll(t, `
int a[10];
int total;
int main() {
	int i;
	for (i = 0; i < 10; i++) a[i] = i * i;
	total = 0;
	for (i = 0; i < 10; i++) total += a[i];
	putint(total);
	return 0;
}`, "285")
}

func TestInitializedData(t *testing.T) {
	checkAll(t, `
int primes[] = {2, 3, 5, 7, 11};
int scale = 3;
char tag[] = "ok";
int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 5; i++) s += primes[i] * scale;
	putint(s);
	putchar(tag[0]); putchar(tag[1]);
	return 0;
}`, "84ok")
}

func TestPointers(t *testing.T) {
	checkAll(t, `
int x;
int main() {
	int *p;
	int v;
	p = &x;
	*p = 41;
	x = x + 1;
	putint(*p); putchar(' ');
	v = 7;
	p = &v;
	*p += 3;
	putint(v);
	return 0;
}`, "42 10")
}

func TestPointerArithmetic(t *testing.T) {
	checkAll(t, `
int a[5] = {10, 20, 30, 40, 50};
int main() {
	int *p; int *q;
	p = a;
	q = p + 4;
	putint(*q); putchar(' ');
	putint(q - p); putchar(' ');
	p++;
	putint(*p); putchar(' ');
	putint(*(a + 3));
	return 0;
}`, "50 4 20 40")
}

func TestCharsAndStrings(t *testing.T) {
	checkAll(t, `
char msg[] = "hello";
int length(char *s) {
	int n;
	n = 0;
	while (s[n]) n++;
	return n;
}
int main() {
	int i;
	for (i = 0; i < length(msg); i++) putchar(msg[i] - 32);  // upper-case
	putchar(' ');
	putint(length("four"));
	return 0;
}`, "HELLO 4")
}

func TestCharTruncation(t *testing.T) {
	checkAll(t, `
char c;
int main() {
	c = 300;          // truncates to 44
	putint(c); putchar(' ');
	c = c + 212;      // 256 -> 0
	putint(c);
	return 0;
}`, "44 0")
}

func TestLocalArrays(t *testing.T) {
	checkAll(t, `
int main() {
	int buf[8];
	int i; int s;
	for (i = 0; i < 8; i++) buf[i] = i + 1;
	s = 0;
	for (i = 0; i < 8; i++) s += buf[i];
	putint(s);
	return 0;
}`, "36")
}

func TestFunctionArgs(t *testing.T) {
	checkAll(t, `
int six(int a, int b, int c, int d, int e, int f) {
	return a + 2*b + 3*c + 4*d + 5*e + 6*f;
}
int main() { putint(six(1, 2, 3, 4, 5, 6)); return 0; }`, "91")
}

func TestNestedCallsInExpressions(t *testing.T) {
	checkAll(t, `
int sq(int x) { return x * x; }
int add(int a, int b) { return a + b; }
int main() {
	putint(add(sq(3), sq(4)) + sq(add(1, 1)));
	return 0;
}`, "29")
}

func TestTernaryAndBooleans(t *testing.T) {
	checkAll(t, `
int main() {
	int a; int b;
	a = 5; b = 9;
	putint(a > b ? a : b); putchar(' ');
	putint(a < b); putchar(' ');
	putint(!(a < b)); putchar(' ');
	putint((a == 5) + (b == 5));
	return 0;
}`, "9 1 0 1")
}

func TestShortCircuitEffects(t *testing.T) {
	checkAll(t, `
int count;
int bump() { count++; return 1; }
int main() {
	count = 0;
	if (0 && bump()) putint(99);
	if (1 || bump()) putint(count);   // both short-circuit: count still 0
	if (bump() && bump()) putint(count);
	return 0;
}`, "02")
}

func TestIncDecForms(t *testing.T) {
	checkAll(t, `
int a[3] = {5, 6, 7};
int main() {
	int i;
	i = 0;
	putint(i++); putint(i); putint(++i); putchar(' ');
	putint(a[1]--); putint(a[1]); putchar(' ');
	putint(--a[2]);
	return 0;
}`, "012 65 6")
}

func TestVoidFunctions(t *testing.T) {
	checkAll(t, `
int n;
void emit(int x) { putint(x + n); return; }
int main() {
	n = 10;
	emit(5);
	return 0;
}`, "15")
}

func TestPassingPointersToFunctions(t *testing.T) {
	checkAll(t, `
void swap(int *a, int *b) {
	int t;
	t = *a; *a = *b; *b = t;
}
int g1; int g2;
int main() {
	g1 = 3; g2 = 8;
	swap(&g1, &g2);
	putint(g1); putint(g2);
	return 0;
}`, "83")
}

func TestAddressOfLocal(t *testing.T) {
	checkAll(t, `
void setit(int *p) { *p = 77; }
int main() {
	int v;
	v = 0;
	setit(&v);
	putint(v);
	return 0;
}`, "77")
}

func TestManyLocalsSpillToFrame(t *testing.T) {
	// More locals than local registers: overflow goes to the frame.
	checkAll(t, `
int main() {
	int a; int b; int c; int d; int e; int f; int g; int h;
	int i; int j; int k; int l; int m;
	a=1; b=2; c=3; d=4; e=5; f=6; g=7; h=8; i=9; j=10; k=11; l=12; m=13;
	putint(a+b+c+d+e+f+g+h+i+j+k+l+m);
	return 0;
}`, "91")
}

func TestDeepExpressionSpill(t *testing.T) {
	// Expression deep enough to exhaust scratch registers on both targets.
	checkAll(t, `
int main() {
	int x;
	x = ((((1+2)*(3+4)) + ((5+6)*(7+8))) + (((9+10)*(11+12)) + ((13+14)*(15+16))));
	putint(x);
	return 0;
}`, fmt.Sprintf("%d", ((1+2)*(3+4)+(5+6)*(7+8))+((9+10)*(11+12)+(13+14)*(15+16))))
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"no main":          "int f() { return 0; }",
		"undefined var":    "int main() { return x; }",
		"undefined func":   "int main() { return f(); }",
		"arg count":        "int f(int a) { return a; } int main() { return f(1,2); }",
		"type mismatch":    "int *g; int main() { g = 5; return 0; }",
		"break outside":    "int main() { break; return 0; }",
		"assign to rvalue": "int main() { 3 = 4; return 0; }",
		"void variable":    "void v; int main() { return 0; }",
		"too many params":  "int f(int a,int b,int c,int d,int e,int f2,int g) { return 0; } int main() { return 0; }",
		"deref int":        "int main() { int x; return *x; }",
		"redeclared":       "int main() { int x; int x; return 0; }",
		"bad compound":     "int g[2]; int z() { return 1; } int main() { g[z()] += 2; return 0; }",
	}
	for what, src := range cases {
		if _, err := cc.Compile(src, cc.Options{Target: cc.RISCWindowed}); err == nil {
			t.Errorf("%s: compiled without error", what)
		}
	}
}

// TestNumberLiteralRange checks literals run up to the 32-bit pattern
// 2^32-1 and stop there: 2^32 used to pass the bound and wrap to 0.
func TestNumberLiteralRange(t *testing.T) {
	checkAll(t, "int main() { putint(4294967295); putchar(' '); putint(0xffffffff); return 0; }", "-1 -1")
	for _, lit := range []string{"4294967296", "0x100000000", "99999999999"} {
		_, err := cc.Compile("int main() { putint("+lit+"); return 0; }", cc.Options{Target: cc.RISCWindowed})
		if err == nil || !strings.Contains(err.Error(), "bad number "+lit) {
			t.Errorf("%s: err = %v, want bad number", lit, err)
		}
	}
}

func TestDelaySlotOptimizerCounts(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() { putint(fib(10)); return 0; }`
	plain, err := cc.Compile(src, cc.Options{Target: cc.RISCWindowed, NoDelaySlotFill: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := cc.Compile(src, cc.Options{Target: cc.RISCWindowed})
	if err != nil {
		t.Fatal(err)
	}
	if opt.SlotsFilled == 0 {
		t.Error("optimizer filled no delay slots")
	}
	if plain.SlotsFilled != 0 {
		t.Error("NoDelaySlotFill still filled slots")
	}
	// Both versions must still compute fib(10) = 55.
	for _, res := range []*cc.Result{plain, opt} {
		img, err := asm.Assemble(res.Asm)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		m := core.New(core.Config{})
		m.Load(img)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.Console() != "55" {
			t.Errorf("fib(10) = %q", m.Console())
		}
	}
	if opt.Asm == plain.Asm {
		t.Error("optimized assembly identical to unoptimized")
	}
}

// TestDifferentialRandomExpressions generates random integer expression
// programs and checks that all three targets (software mul/div on RISC,
// hardware on CX) agree with a direct Go evaluation.
func TestDifferentialRandomExpressions(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		expr, val := randomExpr(r, 4)
		src := fmt.Sprintf("int main() { putint(%s); return 0; }", expr)
		want := fmt.Sprintf("%d", val)
		for _, target := range allTargets {
			if got := runTarget(t, src, target); got != want {
				t.Fatalf("trial %d target %v: %s = %q, want %q",
					trial, target, expr, got, want)
			}
		}
	}
}

// randomExpr builds a random expression and its int32 value.
func randomExpr(r *rand.Rand, depth int) (string, int32) {
	if depth == 0 || r.Intn(4) == 0 {
		v := int32(r.Intn(2001) - 1000)
		if v < 0 {
			return fmt.Sprintf("(%d)", v), v
		}
		return fmt.Sprintf("%d", v), v
	}
	a, av := randomExpr(r, depth-1)
	b, bv := randomExpr(r, depth-1)
	switch r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b), av + bv
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b), av - bv
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b), av * bv
	case 3:
		if bv == 0 {
			return fmt.Sprintf("(%s + %s)", a, b), av + bv
		}
		return fmt.Sprintf("(%s / %s)", a, b), av / bv
	case 4:
		if bv == 0 {
			return fmt.Sprintf("(%s - %s)", a, b), av - bv
		}
		return fmt.Sprintf("(%s %% %s)", a, b), av % bv
	case 5:
		return fmt.Sprintf("(%s & %s)", a, b), av & bv
	case 6:
		return fmt.Sprintf("(%s | %s)", a, b), av | bv
	default:
		return fmt.Sprintf("(%s ^ %s)", a, b), av ^ bv
	}
}

func TestParseTarget(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want cc.Target
	}{
		{"", cc.RISCWindowed},
		{"windowed", cc.RISCWindowed},
		{"risc", cc.RISCWindowed},
		{"flat", cc.RISCFlat},
		{"cisc", cc.CISC},
		{"cx", cc.CISC},
		{"pipelined", cc.RISCPipelined},
	} {
		got, err := cc.ParseTarget(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTarget(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"smp", "Windowed", "risc-windowed", "vax"} {
		if _, err := cc.ParseTarget(bad); err == nil || !strings.Contains(err.Error(), "unknown target") {
			t.Errorf("ParseTarget(%q) error = %v, want unknown target", bad, err)
		}
	}
}
