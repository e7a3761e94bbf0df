package risc1

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"testing"

	"risc1/internal/prog"
)

// TestTraceProfilePinned pins what the trace tier selects and runs on the 13
// suite kernels on the windowed machine: the trace counters, the hot-block
// count, the full heat profile and the measured opcode n-grams. Engine
// changes that claim to leave trace selection alone must leave this golden
// alone. For a deliberate change, delete the golden: the next run writes a
// fresh one and fails, and the run after that compares against it.
func TestTraceProfilePinned(t *testing.T) {
	var b strings.Builder
	for _, k := range prog.All() {
		img, err := CompileToImage(k.Source, RISCWindowed)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		info, err := RunImage(context.Background(), img, RunOptions{Profile: true})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		fmt.Fprintf(&b, "%s compiled=%d side_exits=%d invalidations=%d trace_instr=%d hot_blocks=%d\n",
			k.Name, info.TracesCompiled, info.TraceSideExits, info.TraceInvalidations,
			info.TraceInstructions, info.HotBlocks)
		for _, p := range info.Profile {
			fmt.Fprintf(&b, "  heat %#x %d %v\n", p.PC, p.Count, p.Trace)
		}
		for _, g := range info.NGrams {
			fmt.Fprintf(&b, "  ngram %s %d\n", strings.Join(g.Ops, " "), g.Count)
		}
	}
	got := b.String()
	const golden = "testdata/trace_profile.golden"
	want, err := os.ReadFile(golden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; rerun to compare against it", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace profile differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
