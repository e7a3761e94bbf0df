package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50},
		{100, 90, 90},
		{1000, 99, 990},
		{20, 50, 10},
		{101, 50, 51},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{99, 90}, {19, 50}, {999, 99}, {0, 50}} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples = %v, want a refusal: fewer than %d beyond it", c.p, c.n, v, minBeyond)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	v, pct, err := tail(seq(200))
	if err != nil || v != 190 || pct != 95 {
		t.Errorf("tail of 1..200 = %v at p%v, %v; want 190 at p95", v, pct, err)
	}
	if _, _, err := tail(seq(minBeyond)); err == nil {
		t.Errorf("tail of %d samples should be refused", minBeyond)
	}
}

func TestFailedOpsCountAsInfinitelySlow(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		// The 15 fastest ops fail: they must not pull the percentiles down.
		l.add(float64(i), i > 15)
	}
	if p50, _ := percentile(l, 50); p50 != 65 {
		t.Errorf("p50 = %v, want 65: 15 failures push the median up by 15 ranks", p50)
	}
	if p90, _ := percentile(l, 90); !math.IsInf(p90, 1) {
		t.Errorf("p90 = %v, want +Inf: more than a tenth of the ops failed", p90)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles(seq(10))
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, %v; want 2.75 5.5 8.25", q1, q2, q3, err)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3, _ = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v; want 1 2 3", q1, q2, q3)
	}
}

func selfOf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for name, st := range selfTimes(spans) {
		out[name] = st.selfNS
	}
	return out
}

func TestSelfTimeNested(t *testing.T) {
	got := selfOf([]span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 70},
	})
	want := map[string]int64{"op": 50, "a": 20, "a1": 10, "b": 20}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	got := selfOf([]span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // outlives its parent
	})
	// The children cover [10,70) and [90,100) of the op: 70 ns, counted once.
	if got["op"] != 30 {
		t.Errorf("self(op) = %d, want 30", got["op"])
	}
	if got["a"] != 80 || got["b"] != 30 {
		t.Errorf("self(a), self(b) = %d, %d; want 80, 30", got["a"], got["b"])
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, base, base, unchanged},
		{"small drift", lower, base, scale(base, 1.05), unchanged},
		{"slower", lower, base, scale(base, 1.2), worse},
		{"faster", lower, base, scale(base, 0.8), better},
		{"throughput down", higher, base, scale(base, 0.8), worse},
		{"throughput up", higher, base, scale(base, 1.2), better},
		{"noisy", lower, []float64{50, 150, 80, 120, 100}, []float64{60, 140, 90, 110, 105}, unresolved},
	} {
		got, err := judge(c.d, c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("%s: judge = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
}
