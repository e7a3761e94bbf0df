package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"risc1"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// setups is how many times the run sets up; setup_s is their median.
	setups int
	// minOps extends the timed phase until it holds this many ops, so that
	// p90 always has minBeyond samples above it, even in a very short run.
	minOps int
}

// report is what one run measured.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	measured          map[string]float64 // untraced runs: the times and rates before scaling
	notes             []string
	tracer            *tracer // traced runs only
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	run       func(o options) (*report, error)
}

// The workloads. Each stresses different layers, and each optimisation of one
// layer has a workload that exercises it and one that bypasses it: an engine
// gain shows in suite-run and not in paper-models, a pipeline-model gain the
// other way round, a compiler gain in compile and in serve's cold requests
// only.
var workloads = []workload{
	{"suite-run", "13 suite kernels on windowed (auto engine) plus 3 parallel kernels on 4 SMP cores, images compiled in set-up: engine tiers and SMP do the work, the compiler none",
		func(o options) (*report, error) {
			return runPasses(o, func() ([]item, error) { return buildSim(suitePairs()) }, false)
		}},
	{"paper-models", "the 13 kernels on pipelined, cisc and flat, the timing models behind E4 and E11: pipeline and CX interpreters dominate and the trace tier barely runs",
		func(o options) (*report, error) {
			return runPasses(o, func() ([]item, error) { return buildSim(paperPairs()) }, false)
		}},
	{"compile", "one op compiles a seed-salted kernel for windowed and cisc and lints both images: cc, asm and lint do all the work and nothing is simulated",
		func(o options) (*report, error) { return runPasses(o, buildCompile, true) }},
	{"serve", "riscd in process over loopback: 70% hot run, 15% cold run, 10% lint, 5% stream; closed loop on 2 connections, then Poisson arrivals at 400 rps",
		runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pair is one kernel on one machine.
type pair struct {
	k kernel
	m machine
}

func (p pair) key() string { return p.k.name + "/" + p.m.name }

func suitePairs() []pair {
	var out []pair
	for _, k := range kernels() {
		m := windowed
		if k.parallel {
			m = smp4
		}
		out = append(out, pair{k, m})
	}
	return out
}

func paperPairs() []pair {
	var out []pair
	for _, m := range []machine{pipelined, cx, flat} {
		for _, k := range kernels() {
			if !k.parallel {
				out = append(out, pair{k, m})
			}
		}
	}
	return out
}

// probePairs are every kernel × machine any workload runs.
func probePairs() []pair {
	return append(suitePairs(), paperPairs()...)
}

// item is one op of a pass workload, runnable through the facade or, in a
// traced run, through the layers one call at a time.
type item struct {
	name    string
	facade  func(salt string) (outcome, error)
	layered func(t *tracer, images map[string]image, salt string) (outcome, error)
	want    outcome
}

// buildSim compiles each pair's image and runs it once; that warm-up run must
// print the kernel's expected console, and its counts become the reference
// every timed run of the pair must repeat exactly.
func buildSim(pairs []pair) ([]item, error) {
	items := make([]item, len(pairs))
	for i, p := range pairs {
		img, err := risc1.CompileToImage(p.k.source, p.m.target)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.key(), err)
		}
		want, err := facadeRun(img, p.m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.key(), err)
		}
		if want.console != p.k.want {
			return nil, fmt.Errorf("%s: console %q, want %q", p.key(), want.console, p.k.want)
		}
		items[i] = item{
			name:   p.key(),
			want:   want,
			facade: func(string) (outcome, error) { return facadeRun(img, p.m) },
			layered: func(t *tracer, images map[string]image, _ string) (outcome, error) {
				return t.run(images[p.key()], p.m)
			},
		}
	}
	return items, nil
}

// compileTargets are the targets a compile op builds. The parallel kernels
// call spawn/join, which only the windowed target accepts.
func compileTargets(k kernel) []risc1.Target {
	if k.parallel {
		return []risc1.Target{risc1.RISCWindowed}
	}
	return []risc1.Target{risc1.RISCWindowed, risc1.CISC}
}

// buildCompile makes one compile op per kernel. The reference is the kernel
// compiled with a salt of the same shape as every op's, which changes neither
// the image size nor the lint findings.
func buildCompile() ([]item, error) {
	var items []item
	for _, k := range kernels() {
		facade := func(salt string) (outcome, error) {
			var o outcome
			for _, target := range compileTargets(k) {
				img, err := risc1.CompileToImage(k.source+salt, target)
				if err != nil {
					return o, err
				}
				o.imageBytes += img.Size()
				o.findings += len(risc1.LintImage(img, risc1.LintOptions{}))
			}
			return o, nil
		}
		layered := func(t *tracer, _ map[string]image, salt string) (outcome, error) {
			var o outcome
			for _, target := range compileTargets(k) {
				img, err := t.compile(k.source+salt, target)
				if err != nil {
					return o, err
				}
				o.imageBytes += img.size()
				o.findings += t.lint(img, target)
			}
			return o, nil
		}
		want, err := facade(saltDecl(0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		items = append(items, item{name: k.name, facade: facade, layered: layered, want: want})
	}
	return items, nil
}

// setUp builds the workload's state o.setups times and returns the last
// state with every set-up's duration. The first is timed from process start.
func setUp[T any](o options, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var state T
	times := make([]float64, o.setups)
	for i := range times {
		start := time.Now()
		if i == 0 {
			start = processStart
		} else if teardown != nil {
			teardown(state)
		}
		var err error
		if state, err = build(); err != nil {
			return state, nil, fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(start).Seconds()
	}
	return state, times, nil
}

// runPasses runs a pass workload: every pass runs each item once, in an
// order drawn from the seed, and passes repeat until the run has lasted
// o.seconds. Whole passes keep every run's op mix the same.
func runPasses(o options, build func() ([]item, error), salted bool) (*report, error) {
	items, setups, err := setUp(o, build, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var x *traced
	var images map[string]image
	if o.trace {
		if x, images, err = startTrace(o.seed, setups[0]); err != nil {
			return nil, err
		}
	}

	in := newPassInputs(o.seed)
	var lat latencies
	var clock hostClock
	var refTime time.Duration // spent timing the reference, between ops
	passes, ok, facadeFirst := 0, 0, false
	start := time.Now()
	for len(lat) < o.minOps || time.Since(start) < seconds(o.seconds) {
		for _, i := range in.nextOrder(len(items)) {
			refTime += clock.due()
			it := items[i]
			salt := ""
			if salted {
				salt = in.nextSalt()
			}
			facade := func() {
				ms, good := rep.measure(it.name, it.want, func() (outcome, error) { return it.facade(salt) })
				lat.add(ms, good)
				if good {
					ok++
				}
			}
			if x == nil {
				facade()
				continue
			}
			layered := func() {
				x.tr.begin(spanOp)
				rep.measure(it.name, it.want, func() (outcome, error) { return it.layered(x.tr, images, salt) })
				x.tr.end()
			}
			tracedFacade := func() { x.tr.begin(spanFacade); facade(); x.tr.end() }
			// Alternate which path goes first, so neither always runs on
			// caches the other warmed.
			if facadeFirst = !facadeFirst; facadeFirst {
				tracedFacade()
				layered()
			} else {
				layered()
				tracedFacade()
			}
		}
		passes++
	}
	elapsed := (time.Since(start) - refTime).Seconds()
	rep.notes = append(rep.notes, fmt.Sprintf("%d ops in %d passes over %.2f s; set-ups %.3f s",
		len(lat), passes, elapsed, setups))

	if x != nil {
		return rep, x.finish(rep, lat, &clock)
	}
	return rep, rep.endToEnd(setups, float64(ok)/elapsed, lat, &clock)
}

// startTrace begins a traced run: the layer probe, then the snapshot of the
// Go runtime's costs the timed phase starts from.
func startTrace(seed uint64, firstSetup float64) (*traced, map[string]image, error) {
	x := &traced{tr: newTracer(), firstSetup: firstSetup}
	images, err := probe(x)
	if err != nil {
		return nil, nil, err
	}
	if err := serveProbe(x, seed); err != nil {
		return nil, nil, err
	}
	x.costs[0] = readGoCosts()
	return x, images, nil
}

// finish ends a traced run's timed phase and derives the per-layer metrics;
// tail holds the latencies the tail metrics are read from.
func (x *traced) finish(rep *report, tail latencies, clock *hostClock) error {
	x.costs[1] = readGoCosts()
	x.ops = rep.attempted
	x.tail = tail
	x.hostFactor = clock.factor()
	rep.tracer = x.tr
	var err error
	rep.metrics, err = x.layerMetrics()
	return err
}

// endToEnd derives the run's end-to-end metrics; lat holds the latencies p50
// and p90 are read from. Times and rates are scaled by the clock's
// factor to a host whose reference time is its median.
func (r *report) endToEnd(setups []float64, opsPerS float64, lat latencies, clock *hostClock) error {
	p50, err := percentile(lat, 50)
	if err != nil {
		return err
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	f := clock.factor()
	r.measured = map[string]float64{
		"setup_s":   median(setups),
		"ops_per_s": opsPerS,
		"p50_ms":    p50,
		"p90_ms":    p90,
		"ref_ms":    f * float64(refNominal) / 1e6,
	}
	r.notes = append(r.notes, fmt.Sprintf("host factor %.4f over %d reference runs; as measured: setup %.4g s, %.4g ops/s, p50 %.4g ms, p90 %.4g ms",
		f, clock.n, median(setups), opsPerS, p50, p90))
	r.metrics = map[string]float64{
		"setup_s":     median(setups) / f,
		"ops_per_s":   opsPerS * f,
		"p50_ms":      p50 / f,
		"p90_ms":      p90 / f,
		"peak_rss_mb": rss,
	}
	return nil
}

// measure runs one op, checks its outcome against want and returns its
// latency in milliseconds and whether it was correct.
func (r *report) measure(name string, want outcome, op func() (outcome, error)) (float64, bool) {
	t0 := time.Now()
	got, err := op()
	ms := float64(time.Since(t0)) / 1e6
	r.attempted++
	if err == nil && got != want {
		err = fmt.Errorf("got %+v, want %+v", got, want)
	}
	if err != nil {
		r.fail(name, err)
		return ms, false
	}
	return ms, true
}

// fail counts a failed op and reports the first few.
func (r *report) fail(name string, err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "op %s failed: %v\n", name, err)
	}
}

// probe runs every kernel × machine the workloads use through the facade and
// through the layers one call at a time. Both must give the same console,
// instruction and cycle counts, image size and lint findings, which shows the
// layered path does the facade's work. The layered images are kept for the
// traced timed ops.
func probe(x *traced) (map[string]image, error) {
	t := x.tr
	images := make(map[string]image)
	for i, p := range probePairs() {
		var f, l outcome
		facade := func() error {
			return t.do(spanFacade, func() error {
				img, err := risc1.CompileToImage(p.k.source, p.m.target)
				if err != nil {
					return err
				}
				if f, err = facadeRun(img, p.m); err != nil {
					return err
				}
				f.imageBytes = img.Size()
				f.findings = len(risc1.LintImage(img, risc1.LintOptions{}))
				return nil
			})
		}
		layered := func() error {
			return t.do(spanOp, func() error {
				img, err := t.compile(p.k.source, p.m.target)
				if err != nil {
					return err
				}
				images[p.key()] = img
				if l, err = t.run(img, p.m); err != nil {
					return err
				}
				l.imageBytes = img.size()
				l.findings = t.lint(img, p.m.target)
				return nil
			})
		}
		first, second := facade, layered
		if i%2 == 1 {
			first, second = layered, facade
		}
		if err := errors.Join(first(), second()); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.key(), err)
		}
		if f.console != p.k.want {
			return nil, fmt.Errorf("probe %s: console %q, want %q", p.key(), f.console, p.k.want)
		}
		if f != l {
			return nil, fmt.Errorf("probe %s: layered path gave %+v, facade %+v", p.key(), l, f)
		}
		x.parityCycles += f.cycles
	}
	return images, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
