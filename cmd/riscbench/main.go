// Riscbench regenerates the tables and figures of the RISC I evaluation.
//
// Usage:
//
//	riscbench                 # run every experiment, E1..E12
//	riscbench -exp E4         # just the execution-time comparison
//	riscbench -target pipelined  # per-benchmark CPI/stall/fill table on the
//	                             # cycle-accurate pipeline (shorthand for -exp E11)
//	riscbench -json           # also write BENCH_risc1.json (machine-readable)
//	riscbench -engine step    # force the single-step reference engine
//	riscbench -timeout 30s    # abort any single configuration after 30s
//	riscbench -inject hanoi   # fault-inject one benchmark (degradation demo)
//	riscbench -cpuprofile cpu.pprof  # host CPU profile of the runs, for go tool pprof
//
// All experiments share one Lab, so benchmark configurations used by several
// tables are simulated only once, concurrently. A configuration that fails or
// times out renders as an ERR cell; the rest of its table survives, the
// failure is listed on stderr (and in the JSON report), and riscbench exits
// nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"risc1"
	"risc1/internal/exp"
	"risc1/internal/mem"
)

// benchFile is where -json writes its report; historyFile accumulates one
// dated JSON line per -json run so the headline figures can be tracked
// over time.
const (
	benchFile   = "BENCH_risc1.json"
	historyFile = "BENCH_history.jsonl"
)

type benchReport struct {
	Schema     string `json:"schema"`
	Engine     string `json:"engine"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Pipeline aggregates the cycle-accurate five-stage pipeline
	// measurement (experiment E11) over the whole suite.
	Pipeline pipelineReport `json:"pipeline"`
	// SMP is the shared-memory scalability measurement (experiment E12):
	// per-kernel speedup, contention and memory-traffic curves over the
	// core-count sweep.
	SMP         smpReport          `json:"smp"`
	Experiments []experimentTiming `json:"experiments"`
	Headline    headlineMetrics    `json:"headline_metrics"`
	Failures    []failureReport    `json:"failures,omitempty"`
}

// pipelineReport is the suite-wide summary of the cycle-accurate pipeline:
// effective CPI under both control-transfer policies, the stall/flush
// breakdown, forwarding traffic, and the delayed jump's measured advantage.
type pipelineReport struct {
	Instructions  uint64  `json:"sim_instructions"`
	CyclesDelayed uint64  `json:"cycles_delayed"`
	CyclesSquash  uint64  `json:"cycles_squash"`
	CPIDelayed    float64 `json:"cpi_delayed"`
	CPISquash     float64 `json:"cpi_squash"`
	DelayedAdvPct float64 `json:"delayed_advantage_pct"`
	FillRatePct   float64 `json:"delay_slot_fill_pct"`
	LoadUseStalls uint64  `json:"load_use_stall_cycles"`
	WindowStalls  uint64  `json:"window_stall_cycles"`
	MemPortStalls uint64  `json:"mem_port_stall_cycles"`
	FlushBubbles  uint64  `json:"flush_bubble_cycles"`
	ForwardsEXMEM uint64  `json:"forwards_ex_mem"`
	ForwardsMEMWB uint64  `json:"forwards_mem_wb"`
}

// smpReport is the E12 scalability sweep in machine-readable form.
type smpReport struct {
	CoreCounts []int             `json:"core_counts"`
	Kernels    []smpKernelReport `json:"kernels"`
}

type smpKernelReport struct {
	Name  string          `json:"name"`
	Cells []smpCellReport `json:"cells"`
}

type smpCellReport struct {
	Cores            int     `json:"cores"`
	ElapsedCycles    uint64  `json:"elapsed_cycles"`
	Speedup          float64 `json:"speedup"`
	Instructions     uint64  `json:"sim_instructions"`
	ContentionCycles uint64  `json:"contention_cycles"`
	TrafficBytes     uint64  `json:"data_traffic_bytes"`
	Spawns           uint64  `json:"spawns"`
}

// historyEntry is one line of BENCH_history.jsonl.
type historyEntry struct {
	Date       string  `json:"date"`
	Schema     string  `json:"schema"`
	Engine     string  `json:"engine"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPIDelayed float64 `json:"cpi_delayed"`
	CPISquash  float64 `json:"cpi_squash"`
	PipeAdvPct float64 `json:"delayed_advantage_pct"`
	// Best parallel-kernel speedup and total contention charge at four
	// cores, so SMP scalability is trackable over time.
	SMPSpeedup4   float64 `json:"smp_best_speedup_4core"`
	SMPContention uint64  `json:"smp_contention_cycles_4core"`
}

type failureReport struct {
	Bench  string `json:"bench"`
	Target string `json:"target"`
	Error  string `json:"error"`
}

type experimentTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"wall_seconds"`
}

type headlineMetrics struct {
	E3CodeSizeRatioGeomean  float64 `json:"e3_code_size_ratio_geomean"`
	E4CXOverRiscTimeGeomean float64 `json:"e4_cx_over_risc_time_geomean"`
	E5HanoiWinBytesPerCall  float64 `json:"e5_hanoi_win_bytes_per_call"`
	E5HanoiCXBytesPerCall   float64 `json:"e5_hanoi_cx_bytes_per_call"`
	E6TrapPct8Windows       float64 `json:"e6_trap_pct_8_windows_recursive"`
	E7AvgCycleSavingPct     float64 `json:"e7_avg_cycle_saving_pct"`
}

func main() {
	which := flag.String("exp", "all", "experiment id (E1..E12) or all")
	targetFlag := flag.String("target", "", "run the per-benchmark table for one target; only \"pipelined\" (shorthand for -exp E11)")
	jsonOut := flag.Bool("json", false, "write "+benchFile+" with the pipeline, SMP and headline metrics")
	timeout := flag.Duration("timeout", 0, "per-configuration wall-clock limit (0 = none)")
	inject := flag.String("inject", "", "benchmark name to run under an injected memory fault")
	engineFlag := flag.String("engine", "auto", "RISC execution engine for all runs: auto or step")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of riscbench to this file")
	flag.Parse()

	engine, err := risc1.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "riscbench: %v\n", err)
		os.Exit(2)
	}

	valid := risc1.ExperimentIDs()
	ids := valid
	if *which != "all" {
		if !slices.Contains(valid, *which) {
			fmt.Fprintf(os.Stderr, "riscbench: unknown experiment %q (valid: %s, all)\n",
				*which, strings.Join(valid, ", "))
			os.Exit(2)
		}
		ids = []string{*which}
	}
	if *targetFlag != "" {
		if *targetFlag != "pipelined" {
			fmt.Fprintf(os.Stderr, "riscbench: unknown -target %q (only \"pipelined\" has a per-benchmark table; see -exp)\n",
				*targetFlag)
			os.Exit(2)
		}
		if *which != "all" && *which != "E11" {
			fmt.Fprintf(os.Stderr, "riscbench: -target pipelined conflicts with -exp %s\n", *which)
			os.Exit(2)
		}
		ids = []string{"E11"}
	}
	lab := exp.NewLab()
	lab.SetEngine(engine)
	if *timeout > 0 {
		lab.SetTimeout(*timeout)
	}
	if *inject != "" {
		if _, ok := risc1.BenchmarkSource(*inject); !ok {
			fmt.Fprintf(os.Stderr, "riscbench: unknown benchmark %q (valid: %s)\n",
				*inject, strings.Join(risc1.BenchmarkNames(), ", "))
			os.Exit(2)
		}
		lab.InjectFault(*inject, &mem.FaultPlan{FailNthWrite: 1})
	}
	if *cpuProfile != "" {
		if err := startCPUProfile(*cpuProfile); err != nil {
			fmt.Fprintf(os.Stderr, "riscbench: %v\n", err)
			exit(1)
		}
	}
	var timings []experimentTiming
	for _, id := range ids {
		start := time.Now()
		out, err := exp.Render(lab, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "riscbench: %s: %v\n", id, err)
			exit(1)
		}
		elapsed := time.Since(start)
		timings = append(timings, experimentTiming{ID: id, Seconds: elapsed.Seconds()})
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %v]\n\n", id, elapsed.Round(time.Millisecond))
	}

	failures := lab.Failures()
	if *jsonOut {
		if err := writeReport(lab, engine, timings, failures); err != nil {
			fmt.Fprintf(os.Stderr, "riscbench: %v\n", err)
			exit(1)
		}
		fmt.Printf("[wrote %s]\n", benchFile)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "riscbench: %d configuration(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s [%s]: %v\n", f.Bench, f.Target, f.Err)
		}
		exit(1)
	}
	stopCPUProfile()
}

// exit flushes the -cpuprofile file, if one is being written, and exits.
func exit(code int) {
	stopCPUProfile()
	os.Exit(code)
}

// stopCPUProfile flushes the -cpuprofile file, if one is being written.
var stopCPUProfile = func() {}

// startCPUProfile starts writing a CPU profile to path.
func startCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	stopCPUProfile = func() {
		stopCPUProfile = func() {}
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "riscbench:", err)
		}
	}
	return nil
}

// writeReport pulls the pipeline, SMP and headline numbers out of the
// (already warm) lab, then writes the JSON report and appends a dated line
// to the history.
func writeReport(lab *exp.Lab, engine risc1.Engine, timings []experimentTiming, failures []exp.Failure) error {
	rep := benchReport{
		Schema:      "risc1-bench/6",
		Engine:      engine.String(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Experiments: timings,
	}
	for _, f := range failures {
		rep.Failures = append(rep.Failures, failureReport{
			Bench: f.Bench, Target: f.Target.String(), Error: f.Err.Error(),
		})
	}

	e11, err := exp.E11PipelinedCPI(lab)
	if err != nil {
		return err
	}
	rep.Pipeline = pipelineReport{
		Instructions:  e11.Instructions,
		CyclesDelayed: e11.CyclesDelayed,
		CyclesSquash:  e11.CyclesSquash,
		CPIDelayed:    e11.CPIDelayed,
		CPISquash:     e11.CPISquash,
		DelayedAdvPct: e11.DelayedAdvPct,
		FillRatePct:   e11.FillRatePct,
		LoadUseStalls: e11.LoadUseStalls,
		WindowStalls:  e11.WindowStalls,
		MemPortStalls: e11.MemPortStalls,
		FlushBubbles:  e11.FlushBubbles,
		ForwardsEXMEM: e11.ForwardsEXMEM,
		ForwardsMEMWB: e11.ForwardsMEMWB,
	}

	e12, err := exp.E12SMPScalability(lab)
	if err != nil {
		return err
	}
	rep.SMP = smpReport{CoreCounts: exp.E12CoreCounts}
	var bestSpeedup4 float64
	var contention4 uint64
	for _, row := range e12.Rows {
		k := smpKernelReport{Name: row.Name}
		for _, c := range row.Cells {
			k.Cells = append(k.Cells, smpCellReport{
				Cores:            c.Cores,
				ElapsedCycles:    c.Elapsed,
				Speedup:          c.Speedup,
				Instructions:     c.Instructions,
				ContentionCycles: c.ContentionCycles,
				TrafficBytes:     c.TrafficBytes,
				Spawns:           c.Spawns,
			})
			if c.Cores == 4 {
				contention4 += c.ContentionCycles
				if c.Speedup > bestSpeedup4 {
					bestSpeedup4 = c.Speedup
				}
			}
		}
		rep.SMP.Kernels = append(rep.SMP.Kernels, k)
	}

	e3, err := exp.E3ProgramSize(lab)
	if err != nil {
		return err
	}
	rep.Headline.E3CodeSizeRatioGeomean = e3.GeoMean
	e4, err := exp.E4ExecutionTime(lab)
	if err != nil {
		return err
	}
	rep.Headline.E4CXOverRiscTimeGeomean = e4.GeoMean
	e5, err := exp.E5CallTraffic(lab)
	if err != nil {
		return err
	}
	for _, row := range e5.Rows {
		if row.Name == "hanoi" {
			rep.Headline.E5HanoiWinBytesPerCall = row.WindowedPer
			rep.Headline.E5HanoiCXBytesPerCall = row.CiscPer
		}
	}
	e6, err := exp.E6WindowDepth(lab)
	if err != nil {
		return err
	}
	for _, row := range e6.Rows {
		if row.Windows == 8 {
			rep.Headline.E6TrapPct8Windows = row.TrapPct
		}
	}
	e7, err := exp.E7DelaySlots(lab)
	if err != nil {
		return err
	}
	if len(e7.Rows) > 0 {
		sum := 0.0
		for _, row := range e7.Rows {
			sum += row.SavingPct
		}
		rep.Headline.E7AvgCycleSavingPct = sum / float64(len(e7.Rows))
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return appendHistory(historyEntry{
		Date:          time.Now().UTC().Format(time.RFC3339),
		Schema:        rep.Schema,
		Engine:        rep.Engine,
		GoVersion:     rep.GoVersion,
		GOMAXPROCS:    rep.GOMAXPROCS,
		CPIDelayed:    rep.Pipeline.CPIDelayed,
		CPISquash:     rep.Pipeline.CPISquash,
		PipeAdvPct:    rep.Pipeline.DelayedAdvPct,
		SMPSpeedup4:   bestSpeedup4,
		SMPContention: contention4,
	})
}

// appendHistory adds one JSON line to the history file.
func appendHistory(e historyEntry) error {
	line, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(historyFile, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
