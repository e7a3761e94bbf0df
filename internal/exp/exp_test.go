package exp

import (
	"os"
	"strings"
	"testing"

	"risc1/internal/acct"
	"risc1/internal/cc"
	"risc1/internal/prog"
)

// sharedLab amortizes simulation across the experiment tests.
var sharedLab = NewLab()

func TestExecuteVerifiesOutput(t *testing.T) {
	b, _ := prog.ByName("fib")
	r, err := Execute(b, cc.RISCWindowed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Console != prog.Expected("fib") {
		t.Errorf("console %q", r.Console)
	}
	if r.CodeBytes <= 0 || r.Stats.Instructions == 0 || r.Seconds <= 0 {
		t.Errorf("run not populated: %+v", r)
	}
}

func TestLabCaches(t *testing.T) {
	l := NewLab()
	b, _ := prog.ByName("fib")
	r1, err := l.Run(b, cc.RISCWindowed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Run(b, cc.RISCWindowed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("lab did not cache the run")
	}
}

func TestE1MixShape(t *testing.T) {
	res, err := E1InstructionMix(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's motivating observation: ALU + load/store + control
	// covers essentially everything, with plain ADD/loads near the top.
	cats := res.Total.ByCategory
	if cats["alu"] == 0 || cats["load"] == 0 || cats["control"] == 0 {
		t.Fatalf("category mix incomplete: %v", cats)
	}
	mix := res.Total.Mix()
	if len(mix) < 8 {
		t.Fatalf("suspiciously small mix: %d mnemonics", len(mix))
	}
	if mix[0].Pct < 10 {
		t.Errorf("top instruction only %.1f%% — expected a dominant simple op", mix[0].Pct)
	}
	if !strings.Contains(res.Table.Render(), "%") {
		t.Error("table did not render")
	}
}

func TestE2Table(t *testing.T) {
	out := E2Characteristics().Render()
	for _, want := range []string{"RISC I", "CX", "VAX-11/780", "31", "none"} {
		if !strings.Contains(out, want) {
			t.Errorf("E2 table missing %q:\n%s", want, out)
		}
	}
}

func TestE3SizeShape(t *testing.T) {
	res, err := E3ProgramSize(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(prog.All()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper: RISC code is larger but by less than ~2x on average.
	if res.GeoMean < 0.8 || res.GeoMean > 2.2 {
		t.Errorf("size ratio geomean = %.2f, expected the paper's ~0.9-1.5 band", res.GeoMean)
	}
	for _, r := range res.Rows {
		if r.RiscBytes <= 0 || r.CiscBytes <= 0 {
			t.Errorf("%s: missing sizes %+v", r.Name, r)
		}
	}
}

func TestE4SpeedShape(t *testing.T) {
	res, err := E4ExecutionTime(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	// The headline: RISC I wins despite executing more instructions.
	// (Our CX cost model is generous to the CISC — see EXPERIMENTS.md —
	// so the margin is smaller than the paper's 2-4x, but the winner and
	// the shape hold: RISC wins broadly, loses only on its two known
	// worst cases: software multiply and window-thrashing Ackermann.)
	if res.GeoMean < 1.15 {
		t.Errorf("speedup geomean = %.2f; RISC should win overall", res.GeoMean)
	}
	wins := 0
	for _, r := range res.Rows {
		if r.Speedup > 1 {
			wins++
		}
	}
	if wins < len(res.Rows)*2/3 {
		t.Errorf("RISC wins only %d/%d benchmarks", wins, len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Name == "hanoi" && r.Speedup < 2 {
			t.Errorf("hanoi (call-dominated) speedup %.2f, want the paper's 2x+", r.Speedup)
		}
	}
}

func TestE5WindowsCutCallTraffic(t *testing.T) {
	res, err := E5CallTraffic(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("too few call-heavy rows: %d", len(res.Rows))
	}
	winsVsFlat := 0
	for _, r := range res.Rows {
		// The core claim: windows move far fewer data bytes per call
		// than either software convention. Ackermann is the documented
		// exception for the flat comparison: its call depth oscillates
		// across the window boundary, thrashing the overflow handler —
		// the worst case the paper's critics cited.
		if r.WindowedPer < r.FlatPer {
			winsVsFlat++
		} else if r.Name != "acker" {
			t.Errorf("%s: windowed %.1f B/call not below flat %.1f",
				r.Name, r.WindowedPer, r.FlatPer)
		}
		if r.WindowedPer >= r.CiscPer {
			t.Errorf("%s: windowed %.1f B/call not below CX %.1f",
				r.Name, r.WindowedPer, r.CiscPer)
		}
	}
	if winsVsFlat < len(res.Rows)-1 {
		t.Errorf("windows beat the flat convention on only %d/%d call-heavy kernels",
			winsVsFlat, len(res.Rows))
	}
	// Calls, spills and fills all go through the register file, so its
	// traffic counts are pinned: a faster regwin must render them byte for
	// byte.
	checkGolden(t, "e5", res.Table.Render())
}

func TestE6TrapRateFallsWithWindows(t *testing.T) {
	res, err := E6WindowDepth(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatal("too few window configurations")
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Overflows > res.Rows[i-1].Overflows {
			t.Errorf("overflows rose from %d windows (%d) to %d windows (%d)",
				res.Rows[i-1].Windows, res.Rows[i-1].Overflows,
				res.Rows[i].Windows, res.Rows[i].Overflows)
		}
	}
	// With only 3 windows the trap rate must be substantial; by the
	// paper's 8 it should have collapsed.
	first, eight := res.Rows[0], res.Rows[3]
	if eight.Windows != 8 {
		t.Fatalf("row 3 is %d windows", eight.Windows)
	}
	if first.TrapPct < 2*eight.TrapPct && first.TrapPct > 0.1 {
		t.Errorf("trap rate barely falls: %.2f%% at 3 vs %.2f%% at 8",
			first.TrapPct, eight.TrapPct)
	}
	// Every trap count at N = 3..16 and every spill batch is pinned.
	checkGolden(t, "e6", res.Table.Render())
}

// TestE6bCyclesAddUp holds E6b's acker runs, at every spill batch, to the
// counter identities, the exact cycle identity of a windowed run included:
// the windows a trap spills beyond the first have their own counter.
func TestE6bCyclesAddUp(t *testing.T) {
	acker, _ := prog.ByName("acker")
	for batch := 1; batch <= 4; batch++ {
		r, err := sharedLab.Run(acker, cc.RISCWindowed, Options{SpillBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if (r.Stats.WindowBatchSpills > 0) != (batch > 1) {
			t.Errorf("batch %d: %d batch spills", batch, r.Stats.WindowBatchSpills)
		}
		if err := acct.Check(acct.Run{Stats: r.Stats, DepthHist: true, Windowed: true}); err != nil {
			t.Errorf("acker at batch %d: %v", batch, err)
		}
	}
}

func TestE7OptimizerSavesCycles(t *testing.T) {
	res, err := E7DelaySlots(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for _, r := range res.Rows {
		if r.CyclesFilled > r.CyclesNop {
			t.Errorf("%s: optimization made it slower (%d vs %d)",
				r.Name, r.CyclesFilled, r.CyclesNop)
		}
		if r.CyclesFilled < r.CyclesNop {
			saved++
		}
	}
	if saved < len(res.Rows)/2 {
		t.Errorf("optimizer saved cycles on only %d/%d benchmarks", saved, len(res.Rows))
	}
}

func TestE6TypicalProgramsBarelyTrap(t *testing.T) {
	res, err := E6WindowDepth(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TypicalRows) == 0 {
		t.Fatal("no typical-program rows")
	}
	// Depth quantiles must be ordered and shallow at the median: most
	// calls happen near the surface even in a recursion-laden suite.
	if res.DepthP50 > res.DepthP90 || res.DepthP90 > res.DepthP99 {
		t.Errorf("depth quantiles unordered: %d/%d/%d",
			res.DepthP50, res.DepthP90, res.DepthP99)
	}
	if res.DepthP99 == 0 {
		t.Error("no depth distribution recorded")
	}
	// Spill-batch policy: bigger batches must take strictly fewer traps
	// on the thrashing workload (each trap evicts more).
	if len(res.BatchRows) < 3 {
		t.Fatal("no spill-batch rows")
	}
	for i := 1; i < len(res.BatchRows); i++ {
		if res.BatchRows[i].Traps >= res.BatchRows[i-1].Traps {
			t.Errorf("batch=%d traps %d not below batch=%d traps %d",
				res.BatchRows[i].Batch, res.BatchRows[i].Traps,
				res.BatchRows[i-1].Batch, res.BatchRows[i-1].Traps)
		}
	}
	for _, r := range res.TypicalRows {
		if r.Windows >= 8 && r.TrapPct > 1.0 {
			t.Errorf("typical programs trap %.2f%% at %d windows; the paper's locality claim needs ~0",
				r.TrapPct, r.Windows)
		}
	}
}

func TestE10PipelineAblation(t *testing.T) {
	res, err := E10PipelineModels(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(prog.All()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// Overlap must be a big win over sequential on every benchmark.
		if r.DlSpeed < 1.3 {
			t.Errorf("%s: delayed overlap only %.2fx over sequential", r.Name, r.DlSpeed)
		}
		if r.Cycles.Delayed >= r.Cycles.Sequential ||
			r.Cycles.Squashing >= r.Cycles.Sequential {
			t.Errorf("%s: overlap lost to sequential: %+v", r.Name, r.Cycles)
		}
	}
	// The design argument: delayed jumps must match squashing hardware
	// (within a few percent either way) while costing zero transistors.
	for _, r := range res.Rows {
		if r.DlAdv < -0.08 {
			t.Errorf("%s: delayed loses %.1f%% to squashing — more than the 'free' argument tolerates",
				r.Name, -100*r.DlAdv)
		}
	}
}

func TestE11MeasuredPipeline(t *testing.T) {
	res, err := E11PipelinedCPI(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(prog.All()) {
		t.Fatalf("rows = %d, want %d (a benchmark failed on the pipeline)",
			len(res.Rows), len(prog.All()))
	}
	for _, r := range res.Rows {
		d, s := r.Delayed, r.Squash
		if d.Instructions != s.Instructions {
			t.Errorf("%s: policies retired different streams: %d vs %d",
				r.Name, d.Instructions, s.Instructions)
		}
		if d.CPI() < 1 {
			t.Errorf("%s: CPI %.3f < 1 on a single-issue machine", r.Name, d.CPI())
		}
		if d.FlushBubbleCycles != 0 {
			t.Errorf("%s: delayed policy charged flush bubbles", r.Name)
		}
		// The policy gap decomposes exactly into the squash policy's
		// flush bubbles minus the interlock and memory-port stalls those
		// bubbles' fetch gaps absorb (a bubble after a taken transfer
		// delays the next fetch past the very conflicts the delayed
		// policy must stall for).
		hidden := int64(d.LoadUseStallCycles+d.MemPortStallCycles) -
			int64(s.LoadUseStallCycles+s.MemPortStallCycles)
		if int64(s.Cycles-d.Cycles) != int64(s.FlushBubbleCycles)-hidden {
			t.Errorf("%s: policy gap %d, flush bubbles %d, hidden stalls %d",
				r.Name, s.Cycles-d.Cycles, s.FlushBubbleCycles, hidden)
		}
		// E10's analytical claim, now measured: delayed jumps never lose
		// to squashing hardware (the slot is covered either way, and
		// squash adds bubbles on top).
		if r.AdvantagePct() < 0 {
			t.Errorf("%s: delayed measured %+.2f%% vs squashing", r.Name, r.AdvantagePct())
		}
	}
	if res.CPIDelayed > res.CPISquash {
		t.Errorf("suite CPI: delayed %.3f > squash %.3f", res.CPIDelayed, res.CPISquash)
	}
	// Every simulated number in the table is pinned: a faster pipeline
	// implementation must render it byte for byte.
	checkGolden(t, "e11", res.Table.Render())
}

// checkGolden requires an experiment table to render byte for byte as
// testdata/<name>.golden, the output of `riscbench -exp <NAME>` without its
// timing line.
func checkGolden(t *testing.T, name, tbl string) {
	t.Helper()
	golden, err := os.ReadFile("testdata/" + name + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimRight(tbl, "\n") != strings.TrimRight(string(golden), "\n") {
		t.Errorf("table differs from testdata/%s.golden:\n got:\n%s\nwant:\n%s", name, tbl, golden)
	}
}

func TestE8AreaStory(t *testing.T) {
	res := E8AreaModel()
	if res.Risc.ControlFraction() >= res.Cisc.ControlFraction() {
		t.Error("RISC control fraction not below CISC")
	}
	out := res.Table.Render()
	if !strings.Contains(out, "register file") || !strings.Contains(out, "microcode ROM") {
		t.Errorf("area table incomplete:\n%s", out)
	}
}

func TestE9TrafficComparable(t *testing.T) {
	res, err := E9MemoryTraffic(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.RiscFetch <= r.CiscFetch {
			// RISC should fetch MORE instruction bytes (more, simpler
			// instructions) — that's the objection E9 answers.
			t.Logf("note: %s fetched less on RISC (%d vs %d)",
				r.Name, r.RiscFetch, r.CiscFetch)
		}
		// matmul is the documented outlier: software multiply executes
		// ~20 instructions per MULL, so its fetch traffic balloons.
		if r.TotalRatio > 4 && r.Name != "matmul" {
			t.Errorf("%s: RISC total traffic %.2fx CX — 'comparable' claim broken",
				r.Name, r.TotalRatio)
		}
	}
}

// TestE12ScalabilityShape pins the shape of the SMP scalability curves:
// the data-parallel psum and pcrunch speed up at every step from 1 to 8
// cores, while pqsort, whose merge serializes on core 0, peaks at 2 or 4
// cores and then falls at 8.
func TestE12ScalabilityShape(t *testing.T) {
	res, err := E12SMPScalability(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]E12Row{}
	for _, r := range res.Rows {
		if len(r.Cells) != len(E12CoreCounts) {
			t.Fatalf("%s: %d cells, want one per core count %v", r.Name, len(r.Cells), E12CoreCounts)
		}
		rows[r.Name] = r
	}
	for _, name := range []string{"psum", "pcrunch"} {
		cells := rows[name].Cells
		if len(cells) == 0 {
			t.Fatalf("no E12 row for %s", name)
		}
		for i := 1; i < len(cells); i++ {
			if cells[i].Speedup <= cells[i-1].Speedup {
				t.Errorf("%s: speedup %.2fx on %d cores, not above %.2fx on %d",
					name, cells[i].Speedup, cells[i].Cores, cells[i-1].Speedup, cells[i-1].Cores)
			}
		}
	}
	cells := rows["pqsort"].Cells
	if len(cells) == 0 {
		t.Fatal("no E12 row for pqsort")
	}
	peak := cells[0]
	for _, c := range cells {
		if c.Speedup > peak.Speedup {
			peak = c
		}
	}
	if peak.Cores != 2 && peak.Cores != 4 {
		t.Errorf("pqsort peaks at %d cores (%.2fx), want 2 or 4", peak.Cores, peak.Speedup)
	}
	if last := cells[len(cells)-1]; last.Cores != 8 || last.Speedup >= peak.Speedup {
		t.Errorf("pqsort on %d cores: %.2fx, want a fall at 8 cores below the %.2fx peak",
			last.Cores, last.Speedup, peak.Speedup)
	}
}
