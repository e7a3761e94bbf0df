package cc_test

import (
	"errors"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cisc"
)

// compileErr compiles src for target and returns the front end's
// CompileError, or nil when src compiles.
func compileErr(t *testing.T, src string, target cc.Target) *cc.CompileError {
	t.Helper()
	_, err := cc.Compile(src, cc.Options{Target: target})
	if err == nil {
		return nil
	}
	var ce *cc.CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("%v: error %T %v, want a *cc.CompileError", target, err, err)
	}
	return ce
}

// TestUnterminatedSourceIsACompileError pins sources that end inside a
// construct: each is a typed diagnostic, never an index past the tokens.
func TestUnterminatedSourceIsACompileError(t *testing.T) {
	for _, src := range []string{
		"int A(){",
		"int A(){ {",
		"int A(){ if (1) {",
		"int main() { return 0; } int A(){",
		"int A(",
		"int A(void",
		"int x[",
		"int main() { spawn(",
	} {
		for _, target := range allTargets {
			ce := compileErr(t, src, target)
			if ce == nil {
				t.Errorf("%q on %v compiled", src, target)
			}
		}
	}
	if ce := compileErr(t, "int A(){", cc.RISCWindowed); ce == nil || ce.Msg != "unterminated function body" {
		t.Errorf("int A(){: %v, want the unterminated-body diagnostic", ce)
	}
}

// nestedShapes builds each kind of nesting the parser and the code
// generators recurse through, n times over: n levels deep, or 2n where a
// repetition is both an operator and a parenthesis.
func nestedShapes(n int) map[string]string {
	wrap := func(body string) string { return "int *p; int main() { int a; a = 1; " + body + " return 0; }" }
	return map[string]string{
		"parentheses":      wrap("putint(" + strings.Repeat("(", n) + "a" + strings.Repeat(")", n) + ");"),
		"right operands":   wrap("putint(" + strings.Repeat("a+(", n) + "a" + strings.Repeat(")", n) + ");"),
		"operator chain":   wrap("putint(a" + strings.Repeat("+a", n) + ");"),
		"unary operators":  wrap("putint(" + strings.Repeat("~", n) + "a);"),
		"conditionals":     wrap("putint(" + strings.Repeat("a?a:", n) + "a);"),
		"assignments":      wrap(strings.Repeat("a=", n) + "a;"),
		"calls":            "int f(int x) { return x; } int main() { putint(" + strings.Repeat("f(", n) + "1" + strings.Repeat(")", n) + "); return 0; }",
		"blocks":           wrap(strings.Repeat("{", n) + strings.Repeat("}", n)),
		"if statements":    wrap(strings.Repeat("if (a) ", n) + "a = 2;"),
		"else-if chain":    wrap("if (a) a = 2;" + strings.Repeat(" else if (a) a = 2;", n)),
		"pointer stars":    "int " + strings.Repeat("*", n) + "q; int main() { return 0; }",
		"dereferences":     wrap("putint(" + strings.Repeat("*", n) + "p);"),
		"index on a chain": wrap("putint(p[" + strings.Repeat("p[", n) + "0" + strings.Repeat("]", n) + "]);"),
	}
}

// TestNestingLimit holds every shape of nesting to the fixed limit: past it
// the source is a CompileError naming the limit, on every target; below it
// the compiler either builds the program or reports an ordinary error, and
// in no case recurses without bound.
func TestNestingLimit(t *testing.T) {
	for name, src := range nestedShapes(1200) {
		for _, target := range allTargets {
			ce := compileErr(t, src, target)
			if ce == nil || !strings.Contains(ce.Msg, "nesting deeper than") {
				t.Errorf("%s 1200 deep on %v: %v, want the nesting limit", name, target, ce)
			}
		}
	}
	for name, src := range nestedShapes(490) {
		for _, target := range allTargets {
			res, err := cc.Compile(src, cc.Options{Target: target})
			if err != nil {
				if strings.Contains(err.Error(), "nesting deeper than") {
					t.Errorf("%s 490 deep on %v: %v", name, target, err)
				}
				continue
			}
			if target == cc.CISC {
				_, err = cisc.Assemble(res.Asm)
			} else {
				_, err = asm.Assemble(res.Asm)
			}
			_ = err // too large a frame or branch span is a fine answer
		}
	}
}

// TestNestingLimitAtRequestCap is a source the size of the largest body
// riscd accepts, one opening parenthesis after another: the limit turns it
// away at once rather than after half a million levels of recursion.
func TestNestingLimitAtRequestCap(t *testing.T) {
	const cap = 1 << 20
	prefix, suffix := "int main() { putint(", "1); return 0; }"
	src := prefix + strings.Repeat("(", cap-len(prefix)-len(suffix)) + suffix
	// The parser rejects it, so one target stands for all three.
	ce := compileErr(t, src, cc.RISCWindowed)
	if ce == nil || !strings.Contains(ce.Msg, "nesting deeper than") {
		t.Errorf("%v, want the nesting limit", ce)
	}
}
