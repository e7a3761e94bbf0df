package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tiny runs a workload at the smallest scale that still gives every
// percentile enough samples: one set-up, and the timed phase cut to minOps.
func tiny(trace bool) options {
	return options{seed: 1, seconds: 0, trace: trace, setups: 1, minOps: 100}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			rep, err := w.run(tiny(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.failed != 0 || rep.attempted < 100 {
				t.Errorf("%s trace=%v: %d of %d ops failed, want 0 of at least 100", w.name, trace, rep.failed, rep.attempted)
			}
			if err := checkComplete(rep.metrics, defs); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			res := newResult(rep, defs)
			for _, d := range defs {
				if m := res.Metrics[d.Name]; m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
			if trace {
				// The layers' self times must account for the traced op time;
				// what is left is the benchmark's own glue.
				if u := rep.metrics["bench.unattributed_pct"]; u >= 5 {
					t.Errorf("%s: %.2f%% of traced op time is in no layer, want under 5%%", w.name, u)
				}
				continue
			}
			for _, d := range defs {
				if rep.metrics[d.Name] <= 0 {
					t.Errorf("%s: %s = %v, want a positive value", w.name, d.Name, rep.metrics[d.Name])
				}
			}
		}
	}
}

// TestProbeParity runs every kernel × machine through the facade and through
// the layers one call at a time; probe fails unless both agree exactly.
func TestProbeParity(t *testing.T) {
	x := &traced{tr: newTracer()}
	images, err := probe(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != len(probePairs()) {
		t.Errorf("probe kept %d layered images, want one per pair (%d)", len(images), len(probePairs()))
	}
	again := &traced{tr: newTracer()}
	if _, err := probe(again); err != nil {
		t.Fatal(err)
	}
	if x.parityCycles == 0 || x.parityCycles != again.parityCycles {
		t.Errorf("probe cycles %d then %d, want equal and nonzero", x.parityCycles, again.parityCycles)
	}
}

func TestSimCyclesRepeatAcrossPasses(t *testing.T) {
	for name, pairs := range map[string][]pair{"suite-run": suitePairs(), "paper-models": paperPairs()} {
		items, err := buildSim(pairs)
		if err != nil {
			t.Fatal(err)
		}
		var cycles [2]uint64
		for pass := range cycles {
			for _, it := range items {
				o, err := it.facade("")
				if err != nil {
					t.Fatalf("%s %s: %v", name, it.name, err)
				}
				cycles[pass] += o.cycles
			}
		}
		if cycles[0] != cycles[1] {
			t.Errorf("%s: %d simulated cycles in one pass, %d in the next", name, cycles[0], cycles[1])
		}
	}
}

// benchmarkJSON is BENCHMARK.json, read strictly.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	var ws, want [][2]string
	for _, w := range b.Workloads {
		ws = append(ws, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		want = append(want, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("BENCHMARK.json workloads %v, code declares %v", ws, want)
	}
	var e2e, pl []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range b.PerLayer {
		pl = append(pl, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code declares %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(pl, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code declares %v", pl, perLayer)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	largest := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != largest {
		t.Errorf("setup_s must be declared in s, lower, with the largest bound; got %+v", d)
	}
	for _, w := range b.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	if len(raw) > 64<<10 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("BENCHMARK.json is %d bytes with run_seconds %d", len(raw), b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for i, jitter := range []float64{1, 1.01, 0.99, 1.005} {
			res := result{Correct: true, Attempted: 100, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metricValue{10 * jitter, d.Unit}
			}
			res.Metrics["p50_ms"] = metricValue{p50 * jitter, "ms"}
			if err := appendRecord(path, runRecord{"suite-run", uint64(i + 1), 0, res, nil}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slower := write("a.jsonl", 5), write("b.jsonl", 5), write("c.jsonl", 7)
	var out strings.Builder
	if regressed, err := compareFiles(base, same, &out); err != nil || regressed {
		t.Errorf("same runs: regressed=%v, %v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareFiles(base, slower, &out)
	if err != nil || !regressed || !strings.Contains(out.String(), "worse") {
		t.Errorf("p50 40%% slower: regressed=%v, %v\n%s", regressed, err, out.String())
	}
}
