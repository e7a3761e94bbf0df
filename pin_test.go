package risc1

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"testing"
	"time"

	"risc1/internal/acct"
	"risc1/internal/machine"
	"risc1/internal/prog"
)

// checkGolden compares got with the golden file at path. A missing golden is
// written from got and the test fails, so the run after that compares
// against it: delete a golden to regenerate it after a deliberate change.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; rerun to compare against it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestTraceProfilePinned pins the execution profile of the 13 suite kernels
// on the windowed machine: the full heat profile (block dispatches per
// leader) and the measured opcode n-grams. Engine changes that claim to
// leave block formation and batching alone must leave this golden alone.
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
		fmt.Fprintf(&b, "%s\n", k.Name)
		for _, p := range info.Profile {
			fmt.Fprintf(&b, "  heat %#x %d\n", p.PC, p.Count)
		}
		for _, g := range info.NGrams {
			fmt.Fprintf(&b, "  ngram %s %d\n", strings.Join(g.Ops, " "), g.Count)
		}
	}
	checkGolden(t, "testdata/trace_profile.golden", b.String())
}

// TestRunInfoPinned pins what RunImage reports for every target it builds a
// machine for: the 13 suite kernels on windowed, flat, cisc and pipelined
// (delayed and squash), and the parallel kernels on 2 and 4 SMP cores and
// under the race detector at 4 cores. Every RunInfo field is recorded except
// the heat profile and n-grams, which TestTraceProfilePinned covers. Every
// run must also pass checkAccounting.
func TestRunInfoPinned(t *testing.T) {
	type config struct {
		name   string
		target Target
		opt    RunOptions
	}
	var b strings.Builder
	run := func(k prog.Benchmark, c config) {
		img, err := CompileToImage(k.Source, c.target)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		r, err := runImage(context.Background(), img, c.opt)
		if err != nil {
			t.Fatalf("%s on %s: %v", k.Name, c.name, err)
		}
		info := &r.Info
		checkAccounting(t, k.Name+" on "+c.name, c.target, r)
		fmt.Fprintf(&b, "%s %s console=%q truncated=%v instr=%d cycles=%d time=%v code_bytes=%d\n",
			k.Name, c.name, info.Console, info.ConsoleTruncated, info.Instructions,
			info.Cycles, info.Time, info.CodeBytes)
		fmt.Fprintf(&b, "  calls=%d depth=%d overflows=%d underflows=%d read=%d write=%d fetch=%d\n",
			info.Calls, info.MaxCallDepth, info.WindowOverflows, info.WindowUnderflows,
			info.DataReadBytes, info.DataWriteBytes, info.FetchBytes)
		if info.Pipeline != nil {
			fmt.Fprintf(&b, "  pipeline %+v\n", *info.Pipeline)
		}
		if info.SMP != nil {
			fmt.Fprintf(&b, "  smp %+v\n", *info.SMP)
		}
		if c.opt.Race {
			fmt.Fprintf(&b, "  races=%d %v\n", len(info.Races), info.Races)
		}
	}
	for _, c := range []config{
		{"windowed", RISCWindowed, RunOptions{}},
		{"flat", RISCFlat, RunOptions{}},
		{"cisc", CISC, RunOptions{}},
		{"pipelined-delayed", RISCPipelined, RunOptions{Policy: PolicyDelayed}},
		{"pipelined-squash", RISCPipelined, RunOptions{Policy: PolicySquash}},
	} {
		for _, k := range prog.All() {
			run(k, c)
		}
	}
	for _, c := range []config{
		{"cores-2", RISCWindowed, RunOptions{Cores: 2}},
		{"cores-4", RISCWindowed, RunOptions{Cores: 4}},
		{"race-4", RISCWindowed, RunOptions{Cores: 4, Race: true}},
	} {
		for _, k := range prog.Parallel() {
			run(k, c)
		}
	}
	checkGolden(t, "testdata/runinfo.golden", b.String())
}

// checkAccounting holds a run to the counter identities of acct.Check (the
// instruction mix, the depth histogram on the RISC I machines, and the
// exact cycle identity of a single-core windowed run),
// and checks that the SMP cores' retirements and data traffic add up to the
// run's.
func checkAccounting(t *testing.T, run string, target Target, r *machine.Result) {
	t.Helper()
	s := r.Stats
	windowed := target == RISCWindowed && r.SMP == nil
	if err := acct.Check(acct.Run{
		Stats:     s,
		DepthHist: target != CISC,
		Windowed:  windowed,
	}); err != nil {
		t.Errorf("%s: %v", run, err)
	}
	if windowed && r.Cycles != s.Cycles {
		t.Errorf("%s: Cycles = %d, Stats.Cycles = %d", run, r.Cycles, s.Cycles)
	}
	if r.SMP != nil {
		var instructions, reads, writes uint64
		for _, cs := range r.SMP.PerCore {
			instructions += cs.Instructions
			reads += cs.DataReadBytes
			writes += cs.DataWriteBytes
		}
		if instructions != s.Instructions || reads != s.DataReads || writes != s.DataWrites {
			t.Errorf("%s: Σ PerCore instructions, reads, writes = %d, %d, %d; Stats %d, %d, %d",
				run, instructions, reads, writes, s.Instructions, s.DataReads, s.DataWrites)
		}
	}
}

// TestExperimentIDsAllRunnable checks that every advertised experiment ID
// renders through the public API (sharing one Lab per case so common
// configurations simulate once), and pins every rendered table. The engines
// differ only in speed, so the report must match the one golden under auto
// and step. The block case runs auto's block engine with a deadline armed
// on every run, so RunContext and the SMP scheduler check a live context at
// each batch boundary; checking it must not move a cell.
func TestExperimentIDsAllRunnable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		engine  Engine
		timeout time.Duration
	}{
		{"auto", EngineAuto, 0},
		{"block", EngineAuto, time.Hour},
		{"step", EngineStep, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lab := NewLab()
			lab.l.SetEngine(tc.engine)
			lab.l.SetTimeout(tc.timeout)
			var b strings.Builder
			for _, id := range ExperimentIDs() {
				out, err := lab.Experiment(id)
				if err != nil {
					t.Fatalf("Experiment(%q): %v", id, err)
				}
				if out == "" {
					t.Fatalf("Experiment(%q): empty output", id)
				}
				fmt.Fprintf(&b, "== %s ==\n%s\n", id, out)
			}
			checkGolden(t, "testdata/experiments.golden", b.String())
		})
	}
}
