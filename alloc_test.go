package risc1

import "testing"

// TestCompileAllocations keeps the compile path lean: compiling one kernel
// and linting the image may allocate at most the count measured when the
// path was made allocation-light, plus about 10%. The compile workload
// measures wall time; this guard catches the garbage creeping back in on
// its own, before it shows as time. Raise a bound only for a change that
// needs the objects, and say so where it is recorded.
func TestCompileAllocations(t *testing.T) {
	src, ok := BenchmarkSource("qsort")
	if !ok {
		t.Fatal("no qsort kernel")
	}
	bounds := []struct {
		target   Target
		measured float64
	}{
		{RISCWindowed, 520},
		{RISCFlat, 487},
		{RISCPipelined, 520},
		{CISC, 601},
	}
	for _, b := range bounds {
		var err error
		got := testing.AllocsPerRun(10, func() {
			var img *Image
			if img, err = CompileToImage(src, b.target); err == nil {
				LintImage(img, LintOptions{})
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", b.target, err)
		}
		if limit := b.measured * 1.1; got > limit {
			t.Errorf("%v: compile and lint allocate %.0f objects, over the bound of %.0f (measured %.0f)",
				b.target, got, limit, b.measured)
		}
	}
}
