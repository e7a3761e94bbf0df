// Benchmarks that regenerate every table and figure of the RISC I
// evaluation. Each BenchmarkE<n> reruns the corresponding experiment from a
// cold simulator and reports its headline number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper end to end. The rendered tables themselves come from
// `go run ./cmd/riscbench` (or risc1.Experiment); EXPERIMENTS.md records the
// paper-vs-measured comparison.
package risc1_test

import (
	"context"
	"fmt"
	"testing"

	"risc1"
	"risc1/internal/exp"
	"risc1/internal/prog"
)

// BenchmarkE1InstructionMix regenerates the dynamic instruction-usage table
// (the paper's motivation: simple instructions dominate compiled C).
func BenchmarkE1InstructionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E1InstructionMix(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		mix := res.Total.CategoryMix()
		b.ReportMetric(mix[0].Pct, "top-category-%")
		b.ReportMetric(float64(res.Total.Instructions), "instructions")
	}
}

// BenchmarkE2Characteristics regenerates the processor-comparison table.
func BenchmarkE2Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := exp.E2Characteristics().Render(); out == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkE3ProgramSize regenerates the relative-program-size table
// (paper: RISC code ~0.9-1.5x the CISC's).
func BenchmarkE3ProgramSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E3ProgramSize(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoMean, "size-ratio")
	}
}

// BenchmarkE4ExecutionTime regenerates the execution-time table
// (paper: RISC I beats the CISC despite executing more instructions).
func BenchmarkE4ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E4ExecutionTime(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoMean, "speedup-geomean")
	}
}

// BenchmarkE5CallTraffic regenerates the procedure-call traffic comparison
// (the register-window headline).
func BenchmarkE5CallTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E5CallTraffic(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Name == "hanoi" {
				b.ReportMetric(r.WindowedPer, "win-B/call")
				b.ReportMetric(r.FlatPer, "flat-B/call")
				b.ReportMetric(r.CiscPer, "cisc-B/call")
			}
		}
	}
}

// BenchmarkE6WindowDepth regenerates the window-sizing study
// (paper: 8 windows make overflow rare).
func BenchmarkE6WindowDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E6WindowDepth(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Windows == 8 {
				b.ReportMetric(r.TrapPct, "trap-%-at-8win")
			}
		}
	}
}

// BenchmarkE7DelaySlots regenerates the delayed-jump optimization study.
func BenchmarkE7DelaySlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E7DelaySlots(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		saving := 0.0
		for _, r := range res.Rows {
			saving += r.SavingPct
		}
		b.ReportMetric(saving/float64(len(res.Rows)), "avg-cycle-saving-%")
	}
}

// BenchmarkE8AreaModel regenerates the transistor-budget figure
// (paper: control ~6% of RISC I vs ~half of a microcoded CISC).
func BenchmarkE8AreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.E8AreaModel()
		b.ReportMetric(100*res.Risc.ControlFraction(), "risc-control-%")
		b.ReportMetric(100*res.Cisc.ControlFraction(), "cisc-control-%")
	}
}

// BenchmarkE9MemoryTraffic regenerates the memory-traffic comparison.
func BenchmarkE9MemoryTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E9MemoryTraffic(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range res.Rows {
			if r.TotalRatio > worst && r.Name != "matmul" {
				worst = r.TotalRatio
			}
		}
		b.ReportMetric(worst, "worst-traffic-ratio")
	}
}

// BenchmarkE10PipelineModels regenerates the pipeline-organization ablation
// (this repository's extension: sequential vs squashing vs delayed jumps).
func BenchmarkE10PipelineModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E10PipelineModels(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		gain := 0.0
		for _, r := range res.Rows {
			gain += r.DlSpeed
		}
		b.ReportMetric(gain/float64(len(res.Rows)), "avg-overlap-gain-x")
	}
}

// BenchmarkE11MeasuredPipeline regenerates the cycle-accurate pipeline
// comparison: measured CPI under delayed jumps and the delayed policy's
// advantage over predict-not-taken squashing.
func BenchmarkE11MeasuredPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.E11PipelinedCPI(exp.NewLab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CPIDelayed, "cpi-delayed")
		b.ReportMetric(res.DelayedAdvPct, "delayed-adv-%")
	}
}

// BenchmarkSuiteRun is the engine's end-to-end workload: one op runs the 13
// suite kernels on the windowed machine and the 3 parallel kernels on 4 SMP
// cores through RunImage, as the benchmark module's suite-run workload does.
// Images are compiled, and checked once against their expected consoles,
// before the timer starts. ns/sim-instr divides the wall time by every
// instruction the op retired, on all cores.
func BenchmarkSuiteRun(b *testing.B) {
	type run struct {
		img   *risc1.Image
		cores int
	}
	var runs []run
	add := func(bs []prog.Benchmark, cores int) {
		for _, k := range bs {
			img, err := risc1.CompileToImage(k.Source, risc1.RISCWindowed)
			if err != nil {
				b.Fatalf("%s: %v", k.Name, err)
			}
			info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: cores})
			if err != nil {
				b.Fatalf("%s: %v", k.Name, err)
			}
			if want := prog.Expected(k.Name); info.Console != want {
				b.Fatalf("%s: console %q, want %q", k.Name, info.Console, want)
			}
			runs = append(runs, run{img, cores})
		}
	}
	add(prog.All(), 0)
	add(prog.Parallel(), 4)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			info, err := risc1.RunImage(context.Background(), r.img, risc1.RunOptions{Cores: r.cores})
			if err != nil {
				b.Fatal(err)
			}
			instrs += info.Instructions
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/sim-instr")
}

// BenchmarkSuiteEngines runs the 13 suite kernels on the windowed machine
// through RunImage under each engine, so the engines can be ranked on the
// suite rather than on one hot loop. Images are compiled, and checked once
// against their expected consoles under every engine, before the timer
// starts. ns/sim-instr divides the wall time by the instructions retired.
func BenchmarkSuiteEngines(b *testing.B) {
	var imgs []*risc1.Image
	for _, k := range prog.All() {
		img, err := risc1.CompileToImage(k.Source, risc1.RISCWindowed)
		if err != nil {
			b.Fatalf("%s: %v", k.Name, err)
		}
		imgs = append(imgs, img)
	}
	// CI's engine perf guard reads the step and auto sub-benchmarks.
	for _, e := range []risc1.Engine{risc1.EngineStep, risc1.EngineAuto} {
		opt := risc1.RunOptions{Engine: e}
		for i, k := range prog.All() {
			info, err := risc1.RunImage(context.Background(), imgs[i], opt)
			if err != nil {
				b.Fatalf("%s on %v: %v", k.Name, e, err)
			}
			if want := prog.Expected(k.Name); info.Console != want {
				b.Fatalf("%s on %v: console %q, want %q", k.Name, e, info.Console, want)
			}
		}
		b.Run(e.String(), func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				for _, img := range imgs {
					info, err := risc1.RunImage(context.Background(), img, opt)
					if err != nil {
						b.Fatal(err)
					}
					instrs += info.Instructions
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/sim-instr")
		})
	}
}

// BenchmarkCompile is the compiler's end-to-end workload: one op compiles
// the 16 kernels (the 13 suite kernels and the 3 parallel kernels), each with
// a fresh unused global appended as the benchmark module's compile workload
// salts them, for the windowed machine and — except the parallel kernels,
// which only the windowed target accepts — for CISC, and lints every image.
func BenchmarkCompile(b *testing.B) {
	type kernel struct {
		src      string
		parallel bool
	}
	var kernels []kernel
	for _, k := range prog.All() {
		kernels = append(kernels, kernel{k.Source, false})
	}
	for _, k := range prog.Parallel() {
		kernels = append(kernels, kernel{k.Source, true})
	}
	b.ReportAllocs()
	salt := uint64(0)
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			salt++
			src := k.src + fmt.Sprintf("\nint bench_salt_%016x;\n", salt)
			targets := []risc1.Target{risc1.RISCWindowed, risc1.CISC}
			if k.parallel {
				targets = targets[:1]
			}
			for _, target := range targets {
				img, err := risc1.CompileToImage(src, target)
				if err != nil {
					b.Fatal(err)
				}
				risc1.LintImage(img, risc1.LintOptions{})
			}
		}
	}
}
