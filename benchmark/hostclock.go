package main

import (
	"strconv"
	"time"
)

// The reference host's speed wanders. Over minutes, with the load its
// neighbours put on the machine, everything the benchmark runs slows down or
// speeds up together by up to a half, and CPU time moves with wall time.
// Ten runs of one workload spread by up to 50% between their quartiles, more
// than any bound can absorb. So every run also times a fixed reference
// computation a few times a second through its timed phase, always between
// ops so that nothing else runs beside it. The reference is written here and
// shares no code with the program under test, so no change to the program
// can move it. Its mean time over refNominal is the run's host factor; the
// end-to-end times are reported divided by it and the rates multiplied by
// it, as they would read on a host whose reference time is its median.
// README.md compares the spreads with and without the factor over the same
// runs.
const (
	refNominal = 2500 * time.Microsecond // the reference's median time in benchmark runs on the reference host
	refEvery   = 250 * time.Millisecond
	refBurst   = 4
)

// hostClock accumulates timings of the reference computation.
type hostClock struct {
	next  time.Time
	spent time.Duration
	n     int
}

// sample times one run of the reference computation.
func (h *hostClock) sample() time.Duration {
	t0 := time.Now()
	refSink += reference()
	d := time.Since(t0)
	h.spent += d
	h.n++
	h.next = time.Now().Add(refEvery)
	return d
}

// due samples if refEvery has passed since the last sample, returning the
// time it spent.
func (h *hostClock) due() time.Duration {
	if time.Now().Before(h.next) {
		return 0
	}
	return h.sample()
}

// burst samples refBurst times back to back.
func (h *hostClock) burst() {
	for i := 0; i < refBurst; i++ {
		h.sample()
	}
}

// factor is the host's slowness during the samples: 1 when the reference
// took its median time, 1.2 when it took a fifth longer.
func (h *hostClock) factor() float64 {
	if h.n == 0 {
		h.sample()
	}
	return float64(h.spent) / float64(h.n) / float64(refNominal)
}

var refSink uint32

// reference sorts 16K pseudo-random integers with a plain quicksort and walks
// them through a small hash table, then builds a search tree of 3000 named
// nodes and a map: branchy integer code over a cache-sized working set, like
// the simulator's interpreters, and short-lived allocations for the garbage
// collector, like the compiler and riscd. Without the allocating half, the
// workloads' rates and median latencies moved with the 1.2th to 1.7th power
// of the reference's time from run to run, so scaling by it left much of the
// drift in; with it, with about the 0.9th to 1.3th.
func reference() uint32 {
	var a [1 << 14]uint32
	x := uint32(1)
	for i := range a {
		x = x*1664525 + 1013904223
		a[i] = x >> 8
	}
	quicksort(a[:])
	var table [1 << 12]uint32
	var sum uint32
	for _, v := range a {
		slot := (v * 2654435761) >> 20
		table[slot] += v
		sum += table[(slot+7)&(1<<12-1)]
	}

	var root *refNode
	counts := make(map[uint32]int)
	for i := 0; i < 3000; i++ {
		x = x*1664525 + 1013904223
		root = root.insert(x >> 12)
		counts[x>>20]++
	}
	return sum + root.names() + uint32(len(counts))
}

type refNode struct {
	left, right *refNode
	key         uint32
	name        string
}

func (n *refNode) insert(key uint32) *refNode {
	if n == nil {
		return &refNode{key: key, name: strconv.FormatUint(uint64(key), 10)}
	}
	if key < n.key {
		n.left = n.left.insert(key)
	} else {
		n.right = n.right.insert(key)
	}
	return n
}

// names sums the lengths of the names in the tree.
func (n *refNode) names() uint32 {
	if n == nil {
		return 0
	}
	return n.left.names() + uint32(len(n.name)) + n.right.names()
}

func quicksort(a []uint32) {
	for len(a) > 16 {
		p := a[len(a)/2]
		i, j := 0, len(a)-1
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < len(a)-1-i {
			quicksort(a[:j+1])
			a = a[i:]
		} else {
			quicksort(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for k := i; k > 0 && a[k] < a[k-1]; k-- {
			a[k], a[k-1] = a[k-1], a[k]
		}
	}
}
