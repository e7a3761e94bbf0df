package cc

import (
	"math/rand"
	"strings"
	"testing"
)

func lines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if t := strings.TrimSpace(l); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func TestFillsUnconditionalBranchSlot(t *testing.T) {
	src := "\tadd r1,#1,r2\n\tb done\n\tnop\ndone:\n"
	out, n := OptimizeDelaySlots(src)
	if n != 1 {
		t.Fatalf("filled %d, want 1:\n%s", n, out)
	}
	got := lines(out)
	want := []string{"b done", "add r1,#1,r2", "done:"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q\n%s", i, got[i], want[i], out)
		}
	}
}

func TestFillsConditionalSlotWithNonFlagSetter(t *testing.T) {
	src := "\tadd r1,#1,r2\n\tbeq out\n\tnop\nout:\n"
	_, n := OptimizeDelaySlots(src)
	if n != 1 {
		t.Errorf("filled %d, want 1", n)
	}
}

func TestNeverMovesFlagSetters(t *testing.T) {
	for _, inst := range []string{"cmp r1,#0", "sub! r1,#1,r1", "add! r1,#1,r2"} {
		src := "\t" + inst + "\n\tbeq out\n\tnop\nout:\n"
		out, n := OptimizeDelaySlots(src)
		if n != 0 {
			t.Errorf("moved flag setter %q into a conditional slot:\n%s", inst, out)
		}
	}
}

func TestNeverFillsCallOrReturnSlots(t *testing.T) {
	// Call/return slots execute in the other register window.
	for _, xfer := range []string{"callr r25,f", "ret r25,#8", "call r25,(r2)#0"} {
		src := "\tadd r1,#1,r2\n\t" + xfer + "\n\tnop\nf:\n"
		_, n := OptimizeDelaySlots(src)
		if n != 0 {
			t.Errorf("filled the slot of %q", xfer)
		}
	}
}

func TestDoesNotMoveBranchDependency(t *testing.T) {
	// X writes the register the indirect jump reads.
	src := "\tadd r1,#4,r3\n\tjmp alw,(r3)#0\n\tnop\n"
	_, n := OptimizeDelaySlots(src)
	if n != 0 {
		t.Error("moved the producer of the jump's base register")
	}
	// Index-register form too.
	src = "\tadd r1,#4,r4\n\tjmp alw,(r3)r4\n\tnop\n"
	if _, n := OptimizeDelaySlots(src); n != 0 {
		t.Error("moved the producer of the jump's index register")
	}
	// An unrelated register is fine.
	src = "\tadd r1,#4,r7\n\tjmp alw,(r3)#0\n\tnop\n"
	if _, n := OptimizeDelaySlots(src); n != 1 {
		t.Error("refused a safe fill before an indirect jump")
	}
}

func TestDoesNotMoveMultiWordPseudos(t *testing.T) {
	// li/la can expand to two instructions; one slot cannot hold them.
	for _, inst := range []string{"li #100000,r2", "la foo,r2"} {
		src := "\t" + inst + "\n\tb out\n\tnop\nout:\nfoo:\n"
		if _, n := OptimizeDelaySlots(src); n != 0 {
			t.Errorf("moved multi-word pseudo %q", inst)
		}
	}
}

func TestDoesNotMoveLabelsOrBranches(t *testing.T) {
	src := "lbl:\n\tb out\n\tnop\nout:\n"
	if _, n := OptimizeDelaySlots(src); n != 0 {
		t.Error("treated a label as movable")
	}
	src = "\tb first\n\tb out\n\tnop\nfirst:\nout:\n"
	if _, n := OptimizeDelaySlots(src); n != 0 {
		t.Error("moved a branch into a slot")
	}
}

func TestMovesLoadsAndStores(t *testing.T) {
	src := "\tldl (r9)#4,r2\n\tb out\n\tnop\nout:\n"
	if _, n := OptimizeDelaySlots(src); n != 1 {
		t.Error("refused to move a load")
	}
	src = "\tstl r2,(r9)#4\n\tbne out\n\tnop\nout:\n"
	if _, n := OptimizeDelaySlots(src); n != 1 {
		t.Error("refused to move a store")
	}
}

func TestChainedBranchesIndependent(t *testing.T) {
	src := "\tadd r1,#1,r2\n\tb a\n\tnop\n\tadd r3,#1,r4\n\tb b\n\tnop\na:\nb:\n"
	out, n := OptimizeDelaySlots(src)
	if n != 2 {
		t.Errorf("filled %d of 2 independent slots:\n%s", n, out)
	}
}

func TestOptimizedProgramStillCorrect(t *testing.T) {
	// End-to-end sanity at the text level: the optimizer must preserve
	// every non-empty line (just reordered, with NOPs removed).
	src := "\tadd r1,#1,r2\n\tb done\n\tnop\ndone:\tret r25,#8\n\tnop\n"
	out, _ := OptimizeDelaySlots(src)
	for _, want := range []string{"add r1,#1,r2", "b done", "ret r25,#8"} {
		if !strings.Contains(out, want) {
			t.Errorf("lost %q:\n%s", want, out)
		}
	}
}

// referenceDelaySlots is the optimizer's original formulation, a rewrite
// of the split lines in place; OptimizeDelaySlots streams the text once
// and must give the same text and count.
func referenceDelaySlots(src string) (string, int) {
	lines := strings.Split(src, "\n")
	filled := 0
	for i := 0; i+2 < len(lines); i++ {
		if !fillable(lines[i], lines[i+1], lines[i+2]) {
			continue
		}
		lines[i], lines[i+1], lines[i+2] = lines[i+1], lines[i], ""
		copy(lines[i+2:], lines[i+3:])
		lines = lines[:len(lines)-1]
		filled++
		i++
	}
	return strings.Join(lines, "\n"), filled
}

// TestDelaySlotsMatchReference runs the streaming optimizer and the
// reference over random texts of fillable and unfillable lines, with and
// without a final newline, including runs of branches and nops.
func TestDelaySlotsMatchReference(t *testing.T) {
	vocab := []string{
		"\tadd r1,#1,r2", "\tb L1", "\tnop", "\tbeq L2 ;@line 4", "\tnop ;@line 4",
		"\tjmp alw,(r2)#0", "\tldl (r3)#4,r2 ;@line 7", "L1:", "", "\tsub! r1,#1,r1",
		"\tstl r4,(r9)#0", "\tcall r25,(r0)#main", "\tmov r5,r3", "; comment",
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		var b strings.Builder
		n := r.Intn(12)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString(vocab[r.Intn(len(vocab))])
		}
		if r.Intn(2) == 0 {
			b.WriteByte('\n')
		}
		src := b.String()
		got, gn := OptimizeDelaySlots(src)
		want, wn := referenceDelaySlots(src)
		if got != want || gn != wn {
			t.Fatalf("source %q: got %q (%d), reference %q (%d)", src, got, gn, want, wn)
		}
	}
}
