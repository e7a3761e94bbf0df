package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the untraced runs of a -record file, grouped by workload,
// in the order they were recorded.
func readRecords(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]runRecord)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// Verdicts of one workload × metric comparison.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares the runs of a parent (a) and a change (b) of one metric.
//
//   - worse: b's median is worse than a's by more than the bound.
//   - unresolved: either side's quartile spread, as a share of its median,
//     is wider than the bound, so a shift within the bound cannot be seen.
//     Every run of b reading better (or worse) than every run of a still
//     decides it.
//   - better: b's median is better by more than a's own quartile spread, and
//     b wins at least nine tenths of the pairs (a[i], b[i]).
//   - unchanged: otherwise.
func judge(d metricDef, a, b []float64) (string, error) {
	a1, am, a3, err := quartiles(a)
	if err != nil {
		return "", err
	}
	b1, bm, b3, err := quartiles(b)
	if err != nil {
		return "", err
	}
	// worseBy is positive when y is worse than x, as a share of x.
	worseBy := func(x, y float64) float64 {
		if d.Better == "higher" {
			return (x - y) / x
		}
		return (y - x) / x
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && worseBy(x, y) < 0
			allWorse = allWorse && worseBy(x, y) > 0
		}
	}
	change := worseBy(am, bm)
	spread := max((a3-a1)/am, (b3-b1)/bm)
	switch {
	case change > d.Bound && (spread <= d.Bound || allWorse):
		return worse, nil
	case spread > d.Bound && !allBetter:
		return unresolved, nil
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if worseBy(a[i], b[i]) < 0 {
			wins++
		}
	}
	if allBetter || (-change*am > a3-a1 && wins*10 >= pairs*9) {
		return better, nil
	}
	return unchanged, nil
}

// compareFiles prints a verdict for every workload × end-to-end metric of
// two record files, under the bounds BENCHMARK.json declares, and reports
// whether any was a regression.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range ra {
		if _, ok := rb[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", pathA, pathB)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-12s %5s %5s %12s %12s %8s %8s  %s\n",
		"workload", "metric", "runsA", "runsB", "medianA", "medianB", "change", "bound", "verdict")
	regressed := false
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := values(ra[name], d.Name), values(rb[name], d.Name)
			v, err := judge(d, a, b)
			if err != nil {
				return false, fmt.Errorf("%s %s: %w", name, d.Name, err)
			}
			regressed = regressed || v == worse
			ma, mb := median(a), median(b)
			fmt.Fprintf(w, "%-13s %-12s %5d %5d %12.6g %12.6g %+7.1f%% %7.0f%%  %s\n",
				name, d.Name, len(a), len(b), ma, mb, 100*(mb-ma)/ma, 100*d.Bound, v)
		}
	}
	return regressed, nil
}

func values(rs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
