// Command benchmark is the repository's end-to-end benchmark: four workloads
// over the simulator, the toolchain and riscd, each reporting the end-to-end
// metrics BENCHMARK.json declares, or, traced, the per-layer metrics.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash benchmark/run.sh --workload suite-run --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload all --seed 1
//	bash benchmark/run.sh --compare before.jsonl after.jsonl
//
// The last line of standard output is one JSON object: whether every op's
// output was correct, how many ops were attempted and failed, and the
// metrics. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// processStart stands in for the time the process started: the first
// set-up is timed from here.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	secs := fs.Float64("seconds", 25, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	record := fs.String("record", "", "append the result, tagged with workload, seed and trace, to this JSONL file")
	compare := fs.Bool("compare", false, "compare two record files given as arguments: -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "-compare takes two record files")
			return 2
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace takes 0 or 1")
		return 2
	}
	if *name == "all" {
		var common []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" && f.Name != "trace-out" {
				common = append(common, "-"+f.Name, f.Value.String())
			}
		})
		return runAll(common, *traceOut, names, stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (want %s or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	o := options{seed: *seed, seconds: *secs, trace: *trace == 1, setups: 3, minOps: 100}
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", w.name, o.seed)
		}
		if err := rep.tracer.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing spans: %v\n", w.name, err)
			return 1
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(rep.tracer.spans), path))
	}
	if err := checkComplete(rep.metrics, defs); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		return 1
	}
	res := newResult(rep, defs)
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, *trace)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if *record != "" {
		if err := appendRecord(*record, runRecord{w.name, o.seed, *trace, res, rep.measured}); err != nil {
			fmt.Fprintf(os.Stderr, "%s: recording: %v\n", w.name, err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue and result are the benchmark's output format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(rep *report, defs []metricDef) result {
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := rep.metrics[d.Name]
		if math.IsInf(v, 1) {
			// Failed ops count as infinitely slow; JSON has no infinity.
			v = math.MaxFloat64
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res
}

// runRecord is one run's result as -record stores it and -compare reads it.
// Measured holds the end-to-end times and rates as the host gave them, before
// the host factor scaled them, and the reference's mean time.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Result   result             `json:"result"`
	Measured map[string]float64 `json:"measured,omitempty"`
}

func appendRecord(path string, r runRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process of this binary, one
// after another, so that each has its own set-up and peak memory. Each child
// gets the flags given here; a span file named by traceOut gets the
// workload's name before its extension, so no child overwrites another's.
// The last line merges their results, with metrics named workload/metric.
func runAll(args []string, traceOut string, names []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	merged := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, name := range names {
		child := append(slices.Clone(args), "-workload", name)
		if traceOut != "" {
			ext := filepath.Ext(traceOut)
			child = append(child, "-trace-out", strings.TrimSuffix(traceOut, ext)+"-"+name+ext)
		}
		cmd := exec.Command(self, child...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			code = 1
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			merged.Correct = false
			continue
		}
		merged.Correct = merged.Correct && r.Correct
		merged.Attempted += r.Attempted
		merged.Failed += r.Failed
		for k, v := range r.Metrics {
			merged.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(merged)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !merged.Correct {
		code = 1
	}
	return code
}
