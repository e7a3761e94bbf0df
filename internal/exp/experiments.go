package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"risc1/internal/area"
	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/isa"
	"risc1/internal/prog"
	"risc1/internal/report"
	"risc1/internal/stats"
	"risc1/internal/timing"
)

// errCell is what a failed configuration renders as in a table: the row
// survives, the numbers don't pretend to exist, and the failure itself is
// recorded in the lab (Lab.Failures) for the caller's exit status.
const errCell = "ERR"

// geomean of ratios, the paper's preferred aggregate for relative numbers.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// suitePair warms and returns the full suite on two targets, with all the
// simulations for both targets sharing one parallel worker pool. Failed
// benchmarks come back as ERR placeholders.
func suitePair(l *Lab, a, b cc.Target, opt Options) ([]*Run, []*Run) {
	all := prog.All()
	jobs := make([]Job, 0, 2*len(all))
	for _, bench := range all {
		jobs = append(jobs, Job{Bench: bench, Target: a, Opt: opt})
	}
	for _, bench := range all {
		jobs = append(jobs, Job{Bench: bench, Target: b, Opt: opt})
	}
	runs, _ := l.RunParallel(jobs)
	return runs[:len(all)], runs[len(all):]
}

// ---------- E1: dynamic instruction mix ----------

// E1Result aggregates the dynamic instruction mix of the whole suite on
// RISC I, reproducing the motivation table: simple register operations,
// loads/stores and transfers dominate compiled C code.
type E1Result struct {
	Total    *stats.Stats
	Table    *report.Table
	CatTable *report.Table
}

// E1InstructionMix runs the suite on windowed RISC I and aggregates.
// Failed benchmarks are excluded from the mix and listed as ERR rows.
func E1InstructionMix(l *Lab) (*E1Result, error) {
	runs, _ := l.SuiteParallel(cc.RISCWindowed, Options{})
	total := stats.New()
	var failed []string
	for _, r := range runs {
		if r.Failed() {
			failed = append(failed, r.Bench.Name)
			continue
		}
		total.Add(r.Stats)
	}
	t := &report.Table{
		Title:   "E1. Dynamic instruction mix, RISC I, whole benchmark suite",
		Note:    "(reproduces the paper's motivation: a handful of simple instructions do all the work)",
		Headers: []string{"instruction", "executed", "% of all"},
	}
	for i, e := range total.Mix() {
		if i >= 12 {
			break
		}
		t.AddRow(e.Name, report.Num(e.Count), fmt.Sprintf("%.1f%%", e.Pct))
	}
	ct := &report.Table{
		Title:   "E1b. By category",
		Headers: []string{"category", "executed", "% of all"},
	}
	for _, e := range total.CategoryMix() {
		ct.AddRow(e.Name, report.Num(e.Count), fmt.Sprintf("%.1f%%", e.Pct))
	}
	for _, name := range failed {
		t.AddRow(errCell+" "+name, "-", "-")
	}
	return &E1Result{Total: total, Table: t, CatTable: ct}, nil
}

// ---------- E2: machine characteristics ----------

// E2Characteristics builds the paper's processor-comparison table from the
// two machine definitions plus published reference points.
func E2Characteristics() *report.Table {
	t := &report.Table{
		Title: "E2. Characteristics of the compared processors",
		Note:  "(as-built rows from this repository's machines; reference rows from the literature)",
		Headers: []string{"machine", "instructions", "formats",
			"instr bytes", "addr modes", "gp registers", "microcode", "cycle"},
	}
	t.AddRow("RISC I (this repo)",
		fmt.Sprintf("%d", isa.NumInstructions), "2", "4",
		"2", fmt.Sprintf("32 of %d", 10+16*8), "none",
		fmt.Sprintf("%dns", timing.RiscCycleNS))
	t.AddRow("CX (this repo)",
		fmt.Sprintf("%d", cisc.NumInstructions()), "var", "1-16",
		"9", "15", "yes",
		fmt.Sprintf("%dns u-cycle", timing.CXMicrocycleNS))
	t.AddRow("VAX-11/780 (ref)", "303", "var", "2-57", "18", "16", "456Kb", "200ns")
	t.AddRow("M68000 (ref)", "~100", "var", "2-22", "14", "16", "~34Kb", "250ns")
	t.AddRow("Z8002 (ref)", "110", "var", "2-8", "12", "16", "none", "250ns")
	return t
}

// ---------- E3: program size ----------

// E3Row is one benchmark's code-size comparison.
type E3Row struct {
	Name      string
	RiscBytes int
	CiscBytes int
	Ratio     float64 // RISC / CISC: the paper reports ~0.9-1.5
}

// E3Result is the program-size table.
type E3Result struct {
	Rows    []E3Row
	GeoMean float64
	Table   *report.Table
}

// E3ProgramSize compares compiled code bytes, RISC I vs CX.
func E3ProgramSize(l *Lab) (*E3Result, error) {
	rw, cx := suitePair(l, cc.RISCWindowed, cc.CISC, Options{})
	res := &E3Result{Table: &report.Table{
		Title:   "E3. Program size (code bytes)",
		Note:    "(paper: RISC programs are only modestly larger, ~0.9-1.5x a VAX)",
		Headers: []string{"benchmark", "RISC I", "CX", "RISC/CX"},
	}}
	var ratios []float64
	for i := range rw {
		if rw[i].Failed() || cx[i].Failed() {
			res.Table.AddRow(rw[i].Bench.Name, errCell, errCell, errCell)
			continue
		}
		row := E3Row{
			Name:      rw[i].Bench.Name,
			RiscBytes: rw[i].CodeBytes,
			CiscBytes: cx[i].CodeBytes,
		}
		row.Ratio = float64(row.RiscBytes) / float64(row.CiscBytes)
		ratios = append(ratios, row.Ratio)
		res.Rows = append(res.Rows, row)
		res.Table.AddRow(row.Name, report.Num(uint64(row.RiscBytes)),
			report.Num(uint64(row.CiscBytes)), fmt.Sprintf("%.2f", row.Ratio))
	}
	res.GeoMean = geomean(ratios)
	res.Table.AddRow("geometric mean", "", "", fmt.Sprintf("%.2f", res.GeoMean))
	return res, nil
}

// ---------- E4: execution time ----------

// E4Row is one benchmark's simulated-time comparison.
type E4Row struct {
	Name        string
	RiscSeconds float64
	CiscSeconds float64
	Speedup     float64 // CX time / RISC time: the paper reports ~2-4
}

// E4Result is the execution-time table.
type E4Result struct {
	Rows    []E4Row
	GeoMean float64
	Table   *report.Table
}

// E4ExecutionTime compares simulated wall time at each machine's clock.
func E4ExecutionTime(l *Lab) (*E4Result, error) {
	rw, cx := suitePair(l, cc.RISCWindowed, cc.CISC, Options{})
	res := &E4Result{Table: &report.Table{
		Title:   "E4. Execution time (simulated)",
		Note:    "(RISC I at a 400ns cycle vs CX at a 200ns microcycle; paper: RISC ~2-4x faster)",
		Headers: []string{"benchmark", "RISC I", "CX", "CX/RISC"},
	}}
	var ratios []float64
	for i := range rw {
		if rw[i].Failed() || cx[i].Failed() {
			res.Table.AddRow(rw[i].Bench.Name, errCell, errCell, errCell)
			continue
		}
		row := E4Row{
			Name:        rw[i].Bench.Name,
			RiscSeconds: rw[i].Seconds,
			CiscSeconds: cx[i].Seconds,
		}
		row.Speedup = row.CiscSeconds / row.RiscSeconds
		ratios = append(ratios, row.Speedup)
		res.Rows = append(res.Rows, row)
		res.Table.AddRow(row.Name, report.Seconds(row.RiscSeconds),
			report.Seconds(row.CiscSeconds), fmt.Sprintf("%.2f", row.Speedup))
	}
	res.GeoMean = geomean(ratios)
	res.Table.AddRow("geometric mean", "", "", fmt.Sprintf("%.2f", res.GeoMean))
	return res, nil
}

// ---------- E5: procedure-call traffic ----------

// E5Row compares data-memory traffic per procedure call.
type E5Row struct {
	Name          string
	Calls         uint64
	WindowedBytes uint64 // total data traffic, windowed RISC
	FlatBytes     uint64 // total data traffic, flat RISC
	CiscBytes     uint64 // total data traffic, CX
	WindowedPer   float64
	FlatPer       float64
	CiscPer       float64
}

// E5Result is the register-window headline table.
type E5Result struct {
	Rows  []E5Row
	Table *report.Table
}

// E5CallTraffic measures data-memory traffic on the call-heavy kernels
// under all three conventions: the register-window argument in one table.
func E5CallTraffic(l *Lab) (*E5Result, error) {
	res := &E5Result{Table: &report.Table{
		Title: "E5. Data-memory traffic and the cost of procedure calls",
		Note:  "(windows remove the save/restore traffic that flat RISC and CISC CALLS pay)",
		Headers: []string{"benchmark", "calls",
			"win bytes", "flat bytes", "CX bytes",
			"win B/call", "flat B/call", "CX B/call"},
	}}
	// Warm the cache in parallel; the table loop below then hits it in order.
	var jobs []Job
	for _, b := range prog.All() {
		if !b.CallHeavy {
			continue
		}
		for _, t := range []cc.Target{cc.RISCWindowed, cc.RISCFlat, cc.CISC} {
			jobs = append(jobs, Job{Bench: b, Target: t})
		}
	}
	l.RunParallel(jobs) // warm the cache; failures degrade per row below
	for _, b := range prog.All() {
		if !b.CallHeavy {
			continue
		}
		w, _ := l.Run(b, cc.RISCWindowed, Options{})
		f, _ := l.Run(b, cc.RISCFlat, Options{})
		x, _ := l.Run(b, cc.CISC, Options{})
		if w.Failed() || f.Failed() || x.Failed() {
			res.Table.AddRow(b.Name, errCell, errCell, errCell, errCell,
				errCell, errCell, errCell)
			continue
		}
		row := E5Row{
			Name:          b.Name,
			Calls:         w.Stats.Calls,
			WindowedBytes: w.Stats.DataBytes(),
			FlatBytes:     f.Stats.DataBytes(),
			CiscBytes:     x.Stats.DataBytes(),
		}
		calls := float64(row.Calls)
		row.WindowedPer = float64(row.WindowedBytes) / calls
		row.FlatPer = float64(row.FlatBytes) / calls
		row.CiscPer = float64(row.CiscBytes) / calls
		res.Rows = append(res.Rows, row)
		res.Table.AddRow(b.Name, report.Num(row.Calls),
			report.Num(row.WindowedBytes), report.Num(row.FlatBytes),
			report.Num(row.CiscBytes),
			fmt.Sprintf("%.1f", row.WindowedPer),
			fmt.Sprintf("%.1f", row.FlatPer),
			fmt.Sprintf("%.1f", row.CiscPer))
	}
	return res, nil
}

// ---------- E6: how many windows are enough ----------

// E6Row is one window-count configuration.
type E6Row struct {
	Windows      int
	Overflows    uint64
	Calls        uint64
	TrapPct      float64
	ExtraSeconds float64 // simulated time lost to spill/fill traps
}

// E6Result is the window-sizing study. Rows covers the recursion-heavy
// kernels; TypicalRows the rest of the suite; the depth quantiles aggregate
// the whole suite's call-depth distribution.
type E6Result struct {
	Rows        []E6Row
	TypicalRows []E6Row
	BatchRows   []E6BatchRow
	DepthP50    int
	DepthP90    int
	DepthP99    int
	Table       *report.Table
}

// E6WindowDepth sweeps the number of register windows over the call-heavy
// kernels; the paper's design point (8) should put the overflow rate near
// zero for real programs while deep recursion still degrades gracefully.
// TypicalRows measures the same sweep over the *non*-recursive kernels —
// the paper's "real C programs show call-depth locality" claim.
func E6WindowDepth(l *Lab) (*E6Result, error) {
	res := &E6Result{Table: &report.Table{
		Title:   "E6. Register-window sizing",
		Note:    "(the paper picked 8 windows; overflow traps should be rare by then)",
		Headers: []string{"windows", "calls", "overflows", "trap rate", "trap time"},
	}}
	// Warm every configuration the sweeps below will read, in parallel.
	var jobs []Job
	for _, n := range []int{3, 4, 6, 8, 12, 16} {
		for _, b := range prog.All() {
			jobs = append(jobs, Job{Bench: b, Target: cc.RISCWindowed, Opt: Options{Windows: n}})
		}
	}
	for _, b := range prog.All() {
		jobs = append(jobs, Job{Bench: b, Target: cc.RISCWindowed})
	}
	ackerBench, _ := prog.ByName("acker")
	for batch := 1; batch <= 4; batch++ {
		jobs = append(jobs, Job{Bench: ackerBench, Target: cc.RISCWindowed, Opt: Options{SpillBatch: batch}})
	}
	l.RunParallel(jobs) // warm the cache; failures degrade below
	failed := map[string]bool{}
	sweep := func(callHeavy bool) []E6Row {
		var rows []E6Row
		for _, n := range []int{3, 4, 6, 8, 12, 16} {
			var calls, ovf, trapCycles uint64
			for _, b := range prog.All() {
				if b.CallHeavy != callHeavy {
					continue
				}
				r, _ := l.Run(b, cc.RISCWindowed, Options{Windows: n})
				if r.Failed() {
					failed[b.Name] = true
					continue
				}
				calls += r.Stats.Calls
				ovf += r.Stats.WindowOverflow
				trapCycles += timing.TrapCycles(r.Stats.WindowOverflow, r.Stats.WindowUnderflow, r.Stats.WindowBatchSpills)
			}
			rows = append(rows, E6Row{
				Windows:      n,
				Overflows:    ovf,
				Calls:        calls,
				TrapPct:      100 * float64(ovf) / float64(calls),
				ExtraSeconds: float64(trapCycles) * timing.RiscCycleNS * 1e-9,
			})
		}
		return rows
	}
	res.Rows = sweep(true)
	res.TypicalRows = sweep(false)
	res.Table.AddRow("-- recursion-heavy kernels --", "", "", "", "")
	for _, row := range res.Rows {
		res.Table.AddRow(fmt.Sprintf("%d", row.Windows), report.Num(row.Calls),
			report.Num(row.Overflows), fmt.Sprintf("%.2f%%", row.TrapPct),
			report.Seconds(row.ExtraSeconds))
	}
	res.Table.AddRow("-- typical (non-recursive) kernels --", "", "", "", "")
	for _, row := range res.TypicalRows {
		res.Table.AddRow(fmt.Sprintf("%d", row.Windows), report.Num(row.Calls),
			report.Num(row.Overflows), fmt.Sprintf("%.2f%%", row.TrapPct),
			report.Seconds(row.ExtraSeconds))
	}

	// Call-depth distribution: the measurement (after Halbert & Kessler)
	// behind the window-count choice. Aggregate over the whole suite.
	agg := stats.New()
	for _, b := range prog.All() {
		r, _ := l.Run(b, cc.RISCWindowed, Options{})
		if r.Failed() {
			failed[b.Name] = true
			continue
		}
		agg.Add(r.Stats)
	}
	res.DepthP50 = agg.DepthQuantile(0.50)
	res.DepthP90 = agg.DepthQuantile(0.90)
	res.DepthP99 = agg.DepthQuantile(0.99)
	res.Table.AddRow("-- call-depth quantiles, whole suite --", "", "", "", "")
	res.Table.AddRow("p50 / p90 / p99 depth",
		fmt.Sprintf("%d", res.DepthP50),
		fmt.Sprintf("%d", res.DepthP90),
		fmt.Sprintf("%d", res.DepthP99), "")

	// E6b: overflow-handler policy — how many windows to spill per trap
	// (Halbert & Kessler's question). Ackermann, the thrashing worst case,
	// is where the policy matters.
	acker, _ := prog.ByName("acker")
	res.Table.AddRow("-- spill-batch policy on acker (8 windows) --", "", "", "", "")
	for batch := 1; batch <= 4; batch++ {
		r, _ := l.Run(acker, cc.RISCWindowed, Options{SpillBatch: batch})
		if r.Failed() {
			failed[acker.Name] = true
			res.Table.AddRow(fmt.Sprintf("batch=%d", batch), errCell, errCell, "", errCell)
			continue
		}
		row := E6BatchRow{
			Batch:   batch,
			Traps:   r.Stats.WindowOverflow,
			Cycles:  r.Stats.Cycles,
			Seconds: r.Seconds,
		}
		res.BatchRows = append(res.BatchRows, row)
		res.Table.AddRow(fmt.Sprintf("batch=%d", batch),
			report.Num(r.Stats.Calls), report.Num(row.Traps), "",
			report.Seconds(row.Seconds))
	}
	if len(failed) > 0 {
		names := make([]string, 0, len(failed))
		for n := range failed {
			names = append(names, n)
		}
		sort.Strings(names)
		res.Table.AddRow(errCell+" (excluded): "+strings.Join(names, ", "), "", "", "", "")
	}
	return res, nil
}

// E6BatchRow is one spill-batch policy measurement.
type E6BatchRow struct {
	Batch   int
	Traps   uint64
	Cycles  uint64
	Seconds float64
}

// ---------- E7: delayed jumps ----------

// E7Row compares optimized vs NOP-filled delay slots for one benchmark.
type E7Row struct {
	Name         string
	SlotsFilled  int
	Transfers    uint64
	UsefulPct    float64 // dynamic share of delay slots doing real work
	CyclesNop    uint64
	CyclesFilled uint64
	SavingPct    float64
}

// E7Result is the delayed-jump study.
type E7Result struct {
	Rows  []E7Row
	Table *report.Table
}

// E7DelaySlots measures what the instruction reorganizer buys: the paper's
// answer to branch latency was a compile-time pass, not hardware.
func E7DelaySlots(l *Lab) (*E7Result, error) {
	res := &E7Result{Table: &report.Table{
		Title: "E7. Delayed-jump slot filling",
		Note:  "(static slots filled by the reorganizer; dynamic useful-slot share; cycles saved)",
		Headers: []string{"benchmark", "filled(static)", "useful slots",
			"cycles (nop)", "cycles (opt)", "saved"},
	}}
	var jobs []Job
	for _, b := range prog.All() {
		jobs = append(jobs, Job{Bench: b, Target: cc.RISCWindowed, Opt: Options{NoDelayFill: true}})
		jobs = append(jobs, Job{Bench: b, Target: cc.RISCWindowed})
	}
	l.RunParallel(jobs) // warm the cache; failures degrade per row below
	for _, b := range prog.All() {
		nop, _ := l.Run(b, cc.RISCWindowed, Options{NoDelayFill: true})
		opt, _ := l.Run(b, cc.RISCWindowed, Options{})
		if nop.Failed() || opt.Failed() {
			res.Table.AddRow(b.Name, errCell, errCell, errCell, errCell, errCell)
			continue
		}
		slots := opt.Stats.DelaySlotUseful + opt.Stats.DelaySlotNops
		row := E7Row{
			Name:         b.Name,
			SlotsFilled:  opt.SlotsFilled,
			Transfers:    opt.Stats.Transfers,
			UsefulPct:    100 * float64(opt.Stats.DelaySlotUseful) / float64(slots),
			CyclesNop:    nop.Stats.Cycles,
			CyclesFilled: opt.Stats.Cycles,
		}
		row.SavingPct = 100 * (1 - float64(row.CyclesFilled)/float64(row.CyclesNop))
		res.Rows = append(res.Rows, row)
		res.Table.AddRow(b.Name, fmt.Sprintf("%d", row.SlotsFilled),
			fmt.Sprintf("%.1f%%", row.UsefulPct),
			report.Num(row.CyclesNop), report.Num(row.CyclesFilled),
			fmt.Sprintf("%.1f%%", row.SavingPct))
	}
	return res, nil
}

// ---------- E8: silicon area ----------

// E8Result is the area-model comparison.
type E8Result struct {
	Risc, Cisc area.Model
	Table      *report.Table
}

// E8AreaModel renders the floorplan argument: control is a sliver of RISC I
// and half of a microcoded CISC.
func E8AreaModel() *E8Result {
	r, c := area.RISC1(8), area.CX()
	t := &report.Table{
		Title:   "E8. Transistor budget (floorplan model)",
		Note:    "(paper: RISC I control ~6%, register file dominant; microcoded CISC control ~50%)",
		Headers: []string{"block", "RISC I", "CX"},
	}
	names := map[string]bool{}
	for _, b := range r.Blocks {
		names[b.Name] = true
	}
	for _, b := range c.Blocks {
		names[b.Name] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	get := func(m area.Model, name string) string {
		for _, b := range m.Blocks {
			if b.Name == name {
				return report.Num(uint64(b.Transistors))
			}
		}
		return "-"
	}
	for _, n := range ordered {
		t.AddRow(n, get(r, n), get(c, n))
	}
	t.AddRow("TOTAL", report.Num(uint64(r.Total())), report.Num(uint64(c.Total())))
	t.AddRow("control fraction",
		fmt.Sprintf("%.1f%%", 100*r.ControlFraction()),
		fmt.Sprintf("%.1f%%", 100*c.ControlFraction()))
	t.AddRow("register-file fraction",
		fmt.Sprintf("%.1f%%", 100*r.RegisterFileFraction()),
		fmt.Sprintf("%.1f%%", 100*c.RegisterFileFraction()))
	return &E8Result{Risc: r, Cisc: c, Table: t}
}

// ---------- E9: memory traffic ----------

// E9Row is one benchmark's total memory traffic.
type E9Row struct {
	Name                 string
	RiscFetch, CiscFetch uint64
	RiscData, CiscData   uint64
	TotalRatio           float64 // RISC total / CX total
}

// E9Result is the memory-traffic comparison.
type E9Result struct {
	Rows  []E9Row
	Table *report.Table
}

// E9MemoryTraffic answers the classic objection to RISC: yes, it executes
// more instructions, but total memory traffic stays comparable because each
// fetch is simple and the windows remove data traffic.
func E9MemoryTraffic(l *Lab) (*E9Result, error) {
	rw, cx := suitePair(l, cc.RISCWindowed, cc.CISC, Options{})
	res := &E9Result{Table: &report.Table{
		Title: "E9. Memory traffic (bytes moved)",
		Note:  "(instruction fetch + data; RISC fetches more instruction bytes, moves less data)",
		Headers: []string{"benchmark", "RISC fetch", "CX fetch",
			"RISC data", "CX data", "RISC/CX total"},
	}}
	for i := range rw {
		r, c := rw[i], cx[i]
		if r.Failed() || c.Failed() {
			res.Table.AddRow(r.Bench.Name, errCell, errCell, errCell, errCell, errCell)
			continue
		}
		row := E9Row{
			Name:      r.Bench.Name,
			RiscFetch: r.Stats.FetchBytes, CiscFetch: c.Stats.FetchBytes,
			RiscData: r.Stats.DataBytes(), CiscData: c.Stats.DataBytes(),
		}
		row.TotalRatio = float64(row.RiscFetch+row.RiscData) /
			float64(row.CiscFetch+row.CiscData)
		res.Rows = append(res.Rows, row)
		res.Table.AddRow(row.Name,
			report.Num(row.RiscFetch), report.Num(row.CiscFetch),
			report.Num(row.RiscData), report.Num(row.CiscData),
			fmt.Sprintf("%.2f", row.TotalRatio))
	}
	return res, nil
}
