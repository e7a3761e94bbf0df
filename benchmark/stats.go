package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// percentile with fewer is one or two slow outliers, not a tail, and does not
// repeat from run to run.
const minBeyond = 10

// latencies collects per-op times in milliseconds. A failed op is recorded as
// +Inf: it missed every latency limit, so it sorts above every real sample.
type latencies []float64

func (l *latencies) add(ms float64, ok bool) {
	if !ok {
		ms = math.Inf(1)
	}
	*l = append(*l, ms)
}

// percentile is the nearest-rank p-th percentile (0 < p < 100). It refuses a
// percentile with fewer than minBeyond samples above its rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d",
			p, n, max(n-rank, 0), minBeyond)
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tail is the highest nearest-rank percentile that still has exactly
// minBeyond samples above it: its value and which percentile that is.
func tail(xs []float64) (value, pct float64, err error) {
	n := len(xs)
	rank := n - minBeyond
	if rank < 1 {
		return 0, 0, fmt.Errorf("tail of %d samples: need more than %d", n, minBeyond)
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[rank-1], 100 * float64(rank) / float64(n), nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(data, n=4) returns (its default exclusive method), so
// spreads computed here agree with ones computed from the same values there.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles of %d values: need at least 2", n)
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// median of a non-empty slice.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// selfTime is one layer's share of a traced run: its spans' summed duration,
// the part of it no child span covers, and how many spans there were.
type selfTime struct {
	totalNS, selfNS int64
	n               int
}

// selfTimes attributes the spans' time to their names. A span's self time is
// its duration minus the part of its interval its child spans cover; children
// that overlap each other or stick out of the parent are counted once and
// clipped to the parent.
func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	for _, s := range spans {
		st := out[s.Name]
		dur := s.End - s.Start
		st.totalNS += dur
		st.selfNS += dur - covered(s.Start, s.End, children[s.ID])
		st.n++
		out[s.Name] = st
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, v := range iv {
		a := max(v[0], end)
		if v[1] > a {
			total += v[1] - a
			end = v[1]
		}
	}
	return total
}
