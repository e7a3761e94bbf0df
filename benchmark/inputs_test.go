package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestInputsDependOnTheSeedAlone(t *testing.T) {
	names := []string{"pass order", "compile salts", "serve mix", "open-loop schedule"}
	describe := func(seed uint64) []string {
		o, s, m, sc := describeInputs(seed, 500)
		return []string{o, s, m, sc}
	}
	a, again, other := describe(7), describe(7), describe(8)
	for i, name := range names {
		if a[i] != again[i] {
			t.Errorf("%s: seed 7 gave different inputs on a second draw", name)
		}
		if a[i] == other[i] {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestServeMixShares(t *testing.T) {
	const n = 200_000
	in := newServeInputs(1, 16)
	var counts [numKinds]int
	colds := make(map[int]bool)
	for i := 0; i < n; i++ {
		r := in.at(i)
		counts[r.kind]++
		if r.kind == kindCold {
			if colds[r.n] {
				t.Fatalf("request %d repeats cold salt %d", i, r.n)
			}
			colds[r.n] = true
		}
		if r.kind == kindLint && (r.n < 0 || r.n >= 16) {
			t.Fatalf("request %d lints kernel %d of 16", i, r.n)
		}
	}
	for k, c := range counts {
		share := 100 * float64(c) / n
		if math.Abs(share-float64(kindShares[k])) > 0.5 {
			t.Errorf("%s: %.2f%% of requests, want %d%%", kindNames[k], share, kindShares[k])
		}
	}
}

func TestScheduleRate(t *testing.T) {
	s := schedule(3, openLoopRate, 20*time.Second)
	if got, want := float64(len(s)), 20.0*openLoopRate; math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals in 20 s, want about %v", got, want)
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, s[i], i-1, s[i-1])
		}
	}
}

// describeInputs renders the first n inputs of each generator for a seed, one
// string per generator, so a test can pin that they depend on the seed and on
// nothing else.
func describeInputs(seed uint64, n int) (order, salts, mix, sched string) {
	p := newPassInputs(seed)
	order = fmt.Sprint(p.nextOrder(16), p.nextOrder(39))
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(p.nextSalt())
	}
	salts = b.String()
	b.Reset()
	s := newServeInputs(seed, 16)
	for i := 0; i < n; i++ {
		r := s.at(i)
		fmt.Fprintf(&b, "%s:%d ", kindNames[r.kind], r.n)
	}
	mix = b.String()
	sched = fmt.Sprint(schedule(seed, openLoopRate, time.Duration(n)*time.Second/openLoopRate))
	return order, salts, mix, sched
}
