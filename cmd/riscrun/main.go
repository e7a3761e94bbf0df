// Riscrun compiles (for .cm sources) or assembles (for .s sources) a
// program, runs it to completion on the selected machine, and prints its
// console output, optionally followed by execution statistics.
//
// Usage:
//
//	riscrun [-target windowed|flat|cisc|pipelined] [-policy delayed|squash] [-cores N] [-race] [-windows N] [-engine E] [-timeout D] [-max-cycles N] [-stats] [-profile F] [-cpuprofile F] prog.cm
//	riscrun [-windows N] [-flat] [-engine E] [-timeout D] [-max-cycles N] [-stats] [-profile F] [-cpuprofile F] prog.s
//
// -race runs the program under the dynamic race detector (windowed target
// only): any unsynchronized cross-core accesses to shared words are
// printed to stderr with core, PC and source line, and make the exit
// status 1. Combine with -cores to exercise real parallelism.
//
// -target pipelined runs windowed code on the cycle-accurate five-stage
// pipeline model; -stats then adds the measured CPI, stall/flush/forward
// counts and the delay-slot fill rate. -policy picks the control-transfer
// policy (the paper's delayed jumps, or predict-not-taken squash hardware).
//
// -profile dumps the run's execution-heat profile — block leaders with
// their dispatch counts, plus the measured dynamic opcode n-grams — as JSON
// to the given file ("-" for stdout). Heat is counted by the auto engine's
// block dispatches; under -engine step the profile is empty.
//
// -cpuprofile writes a host CPU profile of riscrun itself (compile and run)
// to the given file, for go tool pprof.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"risc1"
)

// profileDump is the JSON shape behind -profile.
type profileDump struct {
	Schema string               `json:"schema"`
	Engine string               `json:"engine"`
	Blocks []risc1.BlockProfile `json:"blocks"`
	NGrams []risc1.NGramCount   `json:"ngrams"`
}

func writeProfile(path string, engine risc1.Engine, info *risc1.RunInfo) error {
	dump := profileDump{
		Schema: "risc1-profile/2",
		Engine: engine.String(),
		Blocks: info.Profile,
		NGrams: info.NGrams,
	}
	out, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func main() {
	target := flag.String("target", "windowed", "machine for .cm sources: windowed, flat, cisc or pipelined")
	policyFlag := flag.String("policy", "delayed", "control-transfer policy for -target pipelined: delayed or squash")
	windows := flag.Int("windows", 0, "register windows for .s sources: 0 for 8, else at least 3")
	flat := flag.Bool("flat", false, "disable register windows for .s sources")
	stats := flag.Bool("stats", false, "print execution statistics")
	trace := flag.Int("trace", 0, "print the first N executed instructions (.s sources)")
	timeout := flag.Duration("timeout", 0, "abort execution after this wall-clock duration (0 = none)")
	maxCycles := flag.Uint64("max-cycles", risc1.DefaultMaxCycles,
		"abort after this many simulated cycles (0 = machine default); riscd enforces the same default budget")
	engineFlag := flag.String("engine", "auto", "RISC execution engine: auto or step")
	cores := flag.Int("cores", 1, "shared-memory cores for .cm sources (windowed target only)")
	race := flag.Bool("race", false, "run under the dynamic race detector (windowed .cm sources); races exit 1")
	profile := flag.String("profile", "", "write the execution-heat profile as JSON to this file (- for stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of riscrun to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: riscrun [-target T] [-stats] prog.cm|prog.s")
		os.Exit(2)
	}
	if *windows != 0 && *windows < 3 {
		fmt.Fprintf(os.Stderr, "riscrun: -windows %d: a windowed machine needs at least 3 windows (0 = the paper's 8)\n", *windows)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		if err := startCPUProfile(*cpuProfile); err != nil {
			fatal(err)
		}
		defer stopCPUProfile()
	}
	path := flag.Arg(0)
	srcBytes, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	src := string(srcBytes)

	engine, err := risc1.ParseEngine(*engineFlag)
	if err != nil {
		fatal(err)
	}
	policy, err := risc1.ParsePolicy(*policyFlag)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var info *risc1.RunInfo
	if strings.HasSuffix(path, ".s") && *cores > 1 {
		fatal(fmt.Errorf("-cores: assembly sources run single-core; use a .cm source: %w", risc1.ErrWindowedOnly))
	}
	if strings.HasSuffix(path, ".s") && *race {
		fatal(fmt.Errorf("-race: assembly sources run single-core; use a .cm source: %w", risc1.ErrWindowedOnly))
	}
	if strings.HasSuffix(path, ".s") {
		m := risc1.NewMachine(risc1.MachineConfig{Windows: *windows, Flat: *flat, MaxCycles: *maxCycles, Engine: engine})
		if err := m.LoadAssembly(src); err != nil {
			fatal(err)
		}
		if *trace > 0 {
			left := *trace
			m.SetTrace(func(pc uint32, disasm string) {
				if left > 0 {
					fmt.Fprintf(os.Stderr, "%08x: %s\n", pc, disasm)
					left--
				}
			})
		}
		if err := m.RunContext(ctx); err != nil {
			fatal(err)
		}
		info = m.Info()
	} else {
		t, err := risc1.ParseTarget(*target)
		if err != nil {
			fatal(err)
		}
		img, err := risc1.CompileToImage(src, t)
		if err != nil {
			fatal(err)
		}
		info, err = risc1.RunImage(ctx, img, risc1.RunOptions{
			MaxCycles: *maxCycles, Engine: engine, Policy: policy,
			Profile: *profile != "", Cores: *cores, Race: *race,
		})
		if err != nil {
			fatal(err)
		}
	}

	fmt.Println(info.Console)
	raced := *race && len(info.Races) > 0
	if raced {
		for _, r := range info.Races {
			fmt.Fprintf(os.Stderr, "riscrun: race: %s\n", r)
		}
		fmt.Fprintf(os.Stderr, "riscrun: %d data race(s) detected\n", len(info.Races))
	}
	if *profile != "" {
		if err := writeProfile(*profile, engine, info); err != nil {
			fatal(err)
		}
	}
	if *stats {
		fmt.Printf("instructions: %d\ncycles:       %d\nsim time:     %v\n",
			info.Instructions, info.Cycles, info.Time)
		fmt.Printf("calls: %d  max depth: %d  window ovf/unf: %d/%d\n",
			info.Calls, info.MaxCallDepth, info.WindowOverflows, info.WindowUnderflows)
		fmt.Printf("memory: %d fetch B, %d read B, %d write B\n",
			info.FetchBytes, info.DataReadBytes, info.DataWriteBytes)
		if p := info.Pipeline; p != nil {
			fmt.Printf("pipeline (%s): CPI %.3f  single-cycle ref %d cyc\n",
				p.Policy, p.CPI, p.RefCycles)
			fmt.Printf("stalls: %d load-use, %d window, %d mem-port, %d flush  forwards: %d EX/MEM, %d MEM/WB\n",
				p.LoadUseStallCycles, p.WindowStallCycles, p.MemPortStallCycles,
				p.FlushBubbleCycles, p.ForwardsEXMEM, p.ForwardsMEMWB)
			fmt.Printf("delay slots: %d filled / %d retired (%.1f%%)\n",
				p.DelaySlotsFilled, p.DelaySlots, p.FillRatePct)
		}
		if s := info.SMP; s != nil {
			fmt.Printf("smp: %d cores  elapsed %d cyc  contention %d cyc  rounds %d  spawns %d (%d failed)\n",
				s.Cores, s.ElapsedCycles, s.ContentionCycles, s.Rounds, s.Spawns, s.SpawnFails)
			for i, c := range s.PerCore {
				fmt.Printf("  core %d: %d instr  %d cyc (+%d contention)  %d read B  %d write B\n",
					i, c.Instructions, c.Cycles, c.ContentionCycles, c.DataReadBytes, c.DataWriteBytes)
			}
		}
	}
	if raced {
		stopCPUProfile()
		os.Exit(1)
	}
}

// stopCPUProfile flushes the -cpuprofile file, if one is being written.
// Every exit path calls it.
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
			fmt.Fprintln(os.Stderr, "riscrun:", err)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "riscrun:", err)
	stopCPUProfile()
	os.Exit(1)
}
