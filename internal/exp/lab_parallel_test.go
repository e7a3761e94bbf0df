package exp

import (
	"reflect"
	"sync"
	"testing"

	"risc1/internal/cc"
	"risc1/internal/core"
	"risc1/internal/prog"
)

// TestLabConcurrentSuiteParallel hammers one Lab from several goroutines
// (each itself fanning out over the worker pool) and checks that every
// caller observes the same cached runs — the singleflight guarantee. Run
// under -race this is the data-race regression test for the parallel lab.
func TestLabConcurrentSuiteParallel(t *testing.T) {
	l := NewLab()
	targets := []cc.Target{cc.RISCWindowed, cc.CISC, cc.RISCWindowed, cc.CISC}
	outs := make([][]*Run, len(targets))
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target cc.Target) {
			defer wg.Done()
			runs, err := l.SuiteParallel(target, Options{})
			if err != nil {
				t.Errorf("SuiteParallel(%v): %v", target, err)
				return
			}
			outs[i] = runs
		}(i, target)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Goroutines 0/2 and 1/3 asked for the same configurations, so they
	// must share the exact cached *Run values, not re-simulations.
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		a, b := outs[pair[0]], outs[pair[1]]
		if len(a) != len(b) {
			t.Fatalf("suite lengths differ: %d vs %d", len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("run %d (%s): duplicate simulation instead of cache hit",
					j, a[j].Bench.Name)
			}
		}
	}
}

// TestLabMixedEngineHammer mixes execution engines across concurrent
// RunParallel waves on one Lab. The engine is part of the cache key, so the
// singleflight cache must never serve a result computed under a different
// engine than the job requested — and since the engines are observationally
// equivalent, the runs that DO differ only by engine must agree on every
// statistic. Run under -race this also exercises the lab's locking across
// engine-keyed entries.
func TestLabMixedEngineHammer(t *testing.T) {
	l := NewLab()
	benches := prog.All()
	if len(benches) > 3 {
		benches = benches[:3]
	}
	engines := []core.Engine{core.EngineStep, core.EngineAuto}
	var jobs []Job
	for _, b := range benches {
		for _, e := range engines {
			jobs = append(jobs, Job{Bench: b, Target: cc.RISCWindowed, Opt: Options{Engine: e}})
		}
	}
	jobs = append(jobs, jobs...) // duplicates stress the singleflight path

	const waves = 3
	outs := make([][]*Run, waves)
	var wg sync.WaitGroup
	for g := 0; g < waves; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runs, err := l.RunParallel(jobs)
			if err != nil {
				t.Errorf("wave %d: %v", g, err)
				return
			}
			outs[g] = runs
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, runs := range outs {
		for i, r := range runs {
			if want := jobs[i].Opt.Engine; r.Engine != want {
				t.Fatalf("wave %d job %d (%s): cache served a %v-engine run for a %v request",
					g, i, jobs[i].Bench.Name, r.Engine, want)
			}
		}
	}
	// Same bench, different engine: distinct cache entries with identical
	// observable results (the differential-equivalence contract, at suite
	// level). Same bench, same engine: the identical cached pointer.
	runs := outs[0]
	per := len(engines)
	for bi := range benches {
		step, block := runs[bi*per], runs[bi*per+1]
		if step == block {
			t.Fatalf("%s: step and block requests shared one cache entry", benches[bi].Name)
		}
		if !reflect.DeepEqual(step.Stats, block.Stats) || step.Console != block.Console {
			t.Errorf("%s: engines disagree:\nstep:  %+v\nblock: %+v",
				benches[bi].Name, step.Stats, block.Stats)
		}
		if dup := runs[len(jobs)/2+bi*per]; dup != step {
			t.Errorf("%s: duplicate step job re-simulated instead of cache hit", benches[bi].Name)
		}
	}
}
