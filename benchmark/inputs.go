package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Every input the benchmark gives the program under test comes from --seed
// through the generators in this file: pass order, compile salts, the serve
// request mix and the open-loop arrival schedule. Each generator has its own
// stream, so drawing more of one never shifts another.
const (
	streamOrder uint64 = iota + 1
	streamSalt
	streamMix
	streamSchedule
)

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// passInputs draws the per-pass order of a pass workload's ops and the salt
// of each compile op.
type passInputs struct{ order, salt *rand.Rand }

func newPassInputs(seed uint64) *passInputs {
	return &passInputs{newRand(seed, streamOrder), newRand(seed, streamSalt)}
}

func (p *passInputs) nextOrder(n int) []int { return p.order.Perm(n) }

// nextSalt is a distinct unused global for one compile op, so that no cache
// keyed on the source can serve it.
func (p *passInputs) nextSalt() string { return saltDecl(p.salt.Uint64()) }

func saltDecl(v uint64) string { return fmt.Sprintf("\nint bench_salt_%016x;\n", v) }

// Serve request kinds and their shares of the mix, in percent.
const (
	kindHot = iota
	kindCold
	kindLint
	kindStream
	numKinds
)

var (
	kindNames  = [numKinds]string{"hot", "cold", "lint", "stream"}
	kindShares = [numKinds]uint64{70, 15, 10, 5}
)

// request is one serve request: its kind and, for cold requests, the salt
// spliced into the source; for lint requests, which kernel to lint.
type request struct {
	kind, n int
}

// serveInputs generates the request mix. Request i is a pure function of the
// seed and i, so the concurrent senders that pick up indexes in a racy order
// still send the same sequence of requests.
type serveInputs struct {
	seed     uint64
	coldBase int
	kernels  int
}

func newServeInputs(seed uint64, kernels int) serveInputs {
	return serveInputs{seed: seed, coldBase: newRand(seed, streamMix).IntN(1_000_000), kernels: kernels}
}

func (s serveInputs) at(i int) request {
	h := splitmix64(s.seed ^ splitmix64(uint64(i)+streamMix))
	p := h % 100
	k, acc := 0, kindShares[0]
	for p >= acc {
		k++
		acc += kindShares[k]
	}
	switch k {
	case kindCold:
		return request{kind: k, n: s.coldBase + i}
	case kindLint:
		return request{kind: k, n: int((h >> 32) % uint64(s.kernels))}
	}
	return request{kind: k}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// schedule is an open-loop arrival schedule: Poisson arrivals at rate per
// second for dur, as offsets from the phase start.
func schedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	r := newRand(seed, streamSchedule)
	var out []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}
