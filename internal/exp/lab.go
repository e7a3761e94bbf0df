// Package exp implements the experiment harnesses that regenerate every
// table and figure of the RISC I evaluation: instruction mix (E1), machine
// characteristics (E2), program size (E3), execution time (E4), procedure
// call traffic (E5), register-window sizing with the spill-policy ablation
// (E6/E6b), delayed-jump optimization (E7), silicon area (E8), memory
// traffic (E9), the analytical pipeline-organization ablation (E10) and
// its cycle-accurate delayed-vs-squashing measurement (E11). Each
// experiment returns structured results plus a rendered table;
// cmd/riscbench prints them and bench_test.go regenerates them under
// `go test -bench`.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/core"
	"risc1/internal/machine"
	"risc1/internal/mem"
	"risc1/internal/pipeline"
	"risc1/internal/prog"
	"risc1/internal/stats"
	"risc1/internal/timing"
)

// Run is one benchmark execution on one machine configuration. A Run with a
// non-nil Err is the placeholder for a failed or timed-out execution: Stats
// is a fresh zero value so aggregations stay total, and table builders
// render ERR cells for it instead of numbers.
type Run struct {
	Bench       prog.Benchmark
	Target      cc.Target
	CodeBytes   int // instruction bytes (excludes data)
	DataBytes   int
	Stats       *stats.Stats
	Seconds     float64 // simulated wall time at the machine's clock
	Console     string
	SlotsFilled int
	// Engine records the execution engine the run was simulated under
	// (RISC targets only; the CX machine has a single interpreter).
	Engine core.Engine
	// Pipeline carries the cycle-accurate timing result for runs on the
	// RISCPipelined target; nil for every other target.
	Pipeline *pipeline.Result
	Err      error // non-nil: this configuration failed to execute
}

// Failed reports whether this run is a failure placeholder.
func (r *Run) Failed() bool { return r != nil && r.Err != nil }

// failedRun builds the placeholder cached and returned for a failed
// execution.
func failedRun(b prog.Benchmark, target cc.Target, err error) *Run {
	return &Run{Bench: b, Target: target, Stats: stats.New(), Err: err}
}

// Options configures a run.
type Options struct {
	Windows     int  // register windows (0 = the paper's 8)
	SpillBatch  int  // windows spilled per overflow trap (0 = 1)
	NoDelayFill bool // leave NOPs in delay slots
	// Engine selects the core execution engine (auto or step) for RISC
	// targets; the CX machine ignores it. Engine is part of
	// the lab cache key, so runs simulated under different engines never
	// share a cached result.
	Engine core.Engine
	// Policy selects the control-transfer policy for runs on the
	// RISCPipelined target (delayed or squash); other targets ignore it.
	// Like Engine it is part of the lab cache key.
	Policy pipeline.Policy
	// Fault, when non-nil, injects memory failures into the run (the plan
	// is copied per execution, so one plan can safely serve many runs).
	Fault *mem.FaultPlan
}

// Execute compiles, assembles and runs one benchmark on one target.
// The console output is verified against the Go reference: an experiment
// on a miscomputing simulator would be worthless.
func Execute(b prog.Benchmark, target cc.Target, opt Options) (*Run, error) {
	return ExecuteContext(context.Background(), b, target, opt)
}

// ExecuteContext is Execute honoring ctx: cancellation or deadline expiry
// aborts the simulation at the next run-batch boundary.
func ExecuteContext(ctx context.Context, b prog.Benchmark, target cc.Target, opt Options) (*Run, error) {
	run := &Run{Bench: b, Target: target, Engine: opt.Engine}
	var img machine.Image
	if target == cc.CISC {
		res, err := cc.Compile(b.Source, cc.Options{Target: target})
		if err != nil {
			return nil, fmt.Errorf("%s on %v: %w", b.Name, target, err)
		}
		if img.CX, err = cisc.Assemble(res.Asm); err != nil {
			return nil, fmt.Errorf("%s on %v: %w", b.Name, target, err)
		}
		run.CodeBytes, run.DataBytes = split(img.CX.Symbols, img.CX.Org, len(img.CX.Bytes))
	} else {
		var err error
		img.RISC, run.SlotsFilled, err = cc.BuildRISC(b.Source, cc.Options{Target: target, NoDelaySlotFill: opt.NoDelayFill})
		if err != nil {
			return nil, fmt.Errorf("%s on %v: %w", b.Name, target, err)
		}
		run.CodeBytes, run.DataBytes = split(img.RISC.Symbols, img.RISC.Org, len(img.RISC.Bytes))
	}
	res, err := machine.Run(ctx, img, machine.Config{
		Target:     target,
		Windows:    opt.Windows,
		SpillBatch: opt.SpillBatch,
		Engine:     opt.Engine,
		Policy:     opt.Policy,
		Fault:      opt.Fault,
	})
	if err != nil {
		return nil, fmt.Errorf("%s on %v: %w", b.Name, target, err)
	}
	// Time counts whole nanoseconds, so this is cycles × clock period exactly.
	run.Stats, run.Seconds, run.Console, run.Pipeline = res.Stats, float64(res.Time)*1e-9, res.Console, res.Timing
	if want := prog.Expected(b.Name); run.Console != want {
		return nil, fmt.Errorf("%s on %v: produced %q, want %q",
			b.Name, target, run.Console, want)
	}
	return run, nil
}

func split(symbols map[string]uint32, org uint32, size int) (code, data int) {
	if ds, ok := symbols["__data_start"]; ok {
		code = int(ds - org)
		return code, size - code
	}
	return size, 0
}

// Lab caches benchmark runs so experiments sharing a configuration do not
// re-simulate. A Lab is safe for concurrent use: concurrent requests for the
// same configuration share a single execution (singleflight), and the
// parallel helpers below fan independent runs out over a bounded worker pool.
//
// The lab degrades gracefully: a failing or timed-out configuration is
// cached as a failure placeholder (so it is not re-simulated by every
// experiment that needs it), recorded for Failures, and returned alongside
// its error so table builders can render an ERR cell and keep going.
type Lab struct {
	mu       sync.Mutex
	cache    map[labKey]*Run
	inflight map[labKey]*labCall
	timeout  time.Duration
	engine   core.Engine
	inject   map[string]*mem.FaultPlan
	failures map[labKey]Failure
}

type labKey struct {
	bench  string
	target cc.Target
	opt    Options
}

// labCall tracks one in-flight execution so duplicate requests can wait on
// it instead of re-simulating.
type labCall struct {
	done chan struct{}
	r    *Run
	err  error
}

// NewLab builds an empty lab.
func NewLab() *Lab {
	return &Lab{
		cache:    map[labKey]*Run{},
		inflight: map[labKey]*labCall{},
		inject:   map[string]*mem.FaultPlan{},
		failures: map[labKey]Failure{},
	}
}

// SetTimeout bounds every subsequent execution's wall time: a configuration
// that exceeds d is aborted (within one run batch) and degraded to an ERR
// placeholder. Zero restores the default of no limit.
func (l *Lab) SetTimeout(d time.Duration) {
	l.mu.Lock()
	l.timeout = d
	l.mu.Unlock()
}

// SetEngine sets the default execution engine for every subsequent run
// that does not pick one explicitly (Options.Engine left at EngineAuto).
// The resolved engine participates in the cache key, so switching engines
// never reuses results simulated under the other one.
func (l *Lab) SetEngine(e core.Engine) {
	l.mu.Lock()
	l.engine = e
	l.mu.Unlock()
}

// InjectFault arranges for every subsequent run of the named benchmark to
// execute under the given memory-fault plan — the failure-injection hook
// behind the degradation tests and riscbench's -inject flag. Runs that
// already passed Options.Fault explicitly keep their own plan.
func (l *Lab) InjectFault(bench string, plan *mem.FaultPlan) {
	l.mu.Lock()
	l.inject[bench] = plan
	l.mu.Unlock()
}

// Failure records one configuration that could not execute.
type Failure struct {
	Bench  string
	Target cc.Target
	Opt    Options
	Err    error
}

// Failures returns every failed configuration observed so far, in a
// deterministic order.
func (l *Lab) Failures() []Failure {
	l.mu.Lock()
	out := make([]Failure, 0, len(l.failures))
	for _, f := range l.failures {
		out = append(out, f)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return fmt.Sprint(out[i].Opt) < fmt.Sprint(out[j].Opt)
	})
	return out
}

// Run executes (or recalls) one benchmark run. On failure it returns both
// the cached ERR placeholder and the error: callers building tables use the
// placeholder, callers that must stop use the error.
func (l *Lab) Run(b prog.Benchmark, target cc.Target, opt Options) (*Run, error) {
	l.mu.Lock()
	if p, ok := l.inject[b.Name]; ok && opt.Fault == nil {
		opt.Fault = p
	}
	if opt.Engine == core.EngineAuto {
		opt.Engine = l.engine
	}
	timeout := l.timeout
	k := labKey{b.Name, target, opt}
	if r, ok := l.cache[k]; ok {
		l.mu.Unlock()
		return r, r.Err
	}
	if c, ok := l.inflight[k]; ok {
		l.mu.Unlock()
		<-c.done
		return c.r, c.err
	}
	c := &labCall{done: make(chan struct{})}
	l.inflight[k] = c
	l.mu.Unlock()

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	c.r, c.err = ExecuteContext(ctx, b, target, opt)
	if c.err != nil {
		c.r = failedRun(b, target, c.err)
	}

	l.mu.Lock()
	l.cache[k] = c.r
	if c.err != nil {
		l.failures[k] = Failure{Bench: b.Name, Target: target, Opt: opt, Err: c.err}
	}
	delete(l.inflight, k)
	l.mu.Unlock()
	close(c.done)
	return c.r, c.err
}

// Job names one run for RunParallel.
type Job struct {
	Bench  prog.Benchmark
	Target cc.Target
	Opt    Options
}

// RunParallel executes the jobs on a worker pool bounded by GOMAXPROCS and
// returns the results in job order. Every slot is populated — failed jobs
// yield ERR placeholders — and the error of the earliest failing job is
// returned alongside, so callers choose between degrading and stopping.
func (l *Lab) RunParallel(jobs []Job) ([]*Run, error) {
	out := make([]*Run, len(jobs))
	errs := make([]error, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = l.Run(jobs[i].Bench, jobs[i].Target, jobs[i].Opt)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Suite runs every benchmark on one target, serially. Failed benchmarks
// yield ERR placeholders; the earliest failure is also returned.
func (l *Lab) Suite(target cc.Target, opt Options) ([]*Run, error) {
	var out []*Run
	var firstErr error
	for _, b := range prog.All() {
		r, err := l.Run(b, target, opt)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out = append(out, r)
	}
	return out, firstErr
}

// SuiteParallel is Suite with the benchmark runs executing concurrently.
// Results keep prog.All() order, so tables built from them are identical to
// the serial ones.
func (l *Lab) SuiteParallel(target cc.Target, opt Options) ([]*Run, error) {
	all := prog.All()
	jobs := make([]Job, 0, len(all))
	for _, b := range all {
		jobs = append(jobs, Job{Bench: b, Target: target, Opt: opt})
	}
	return l.RunParallel(jobs)
}

// RiscCycleNS re-exports the clock for callers assembling their own tables.
const RiscCycleNS = timing.RiscCycleNS
