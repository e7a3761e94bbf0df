package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"risc1"
	"risc1/internal/serve"
)

const (
	// serveWorkers is riscd's worker pool, one per vCPU of the 2-vCPU
	// reference host.
	serveWorkers = 2
	// openLoopRate is the open-loop phase's arrival rate, a fifth of the
	// closed-loop capacity (about 2000 rps on the reference host). At 800 rps
	// the queue in front of the two workers grows whenever the host slows,
	// and ten runs' p90 spread by 17% between their quartiles, against 5% at
	// 400 rps in the same hours.
	openLoopRate = 400
	// serveSlices is how many times the run alternates the two phases.
	serveSlices = 5
	// warmupRequests are sent, and checked, in every set-up: they fill the
	// image cache with the hot program and open the connections.
	warmupRequests = 100
	// probeRounds is how many requests of each kind the serve probe sends.
	probeRounds = 40

	// First request index of each phase, so no two phases send the same cold
	// source.
	closedFrom = 1 << 20
	openFrom   = 2 << 20
	probeFrom  = 3 << 20
)

// The hot request runs one fixed program, which riscd compiles once and then
// serves from its image cache. A cold request splices its salt into the
// source, so every one is a distinct image: a compile and a cache insert.
const (
	fibSrc  = "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n"
	hotSrc  = fibSrc + "int main() { putint(fib(12)); return 0; }\n"
	hotWant = "144"
)

func coldSrc(n int) string {
	return fibSrc + fmt.Sprintf("int main() { putint(fib(12) + %d); return 0; }\n", n)
}

func coldWant(n int) string { return strconv.Itoa(144 + n) }

// conns is how many connections the load generator holds: at most one per
// vCPU, and no more than the server has workers.
func conns() int { return min(serveWorkers, runtime.NumCPU()) }

// client sends the benchmark's requests and checks every answer.
type client struct {
	base     string
	hc       *http.Client
	kernels  []kernel
	lintWant []int // findings riscd must report for each kernel
}

// answer is what a correct response told the client beyond its content.
type answer struct {
	cached bool
	first  time.Time // when the first stream event arrived
}

func (c *client) do(r request) (answer, error) {
	switch r.kind {
	case kindHot:
		return c.run(hotSrc, hotWant)
	case kindCold:
		return c.run(coldSrc(r.n), coldWant(r.n))
	case kindLint:
		return c.lint(r.n)
	}
	return c.stream(hotSrc, hotWant)
}

// post sends a JSON body and returns the response of a 200; any other status
// is an error, a 429 included.
func (c *client) post(path string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, msg)
	}
	return resp, nil
}

// decode reads the whole body, so the connection can be reused, and
// unmarshals it.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func (c *client) run(src, want string) (answer, error) {
	resp, err := c.post("/v1/run", serve.RunRequest{Source: src})
	if err != nil {
		return answer{}, err
	}
	var rr serve.RunResponse
	if err := decode(resp, &rr); err != nil {
		return answer{}, err
	}
	if rr.Console != want {
		return answer{}, fmt.Errorf("/v1/run: console %q, want %q", rr.Console, want)
	}
	return answer{cached: rr.Cached}, nil
}

func (c *client) lint(k int) (answer, error) {
	resp, err := c.post("/v1/lint", serve.LintRequest{Source: c.kernels[k].source})
	if err != nil {
		return answer{}, err
	}
	var lr serve.LintResponse
	if err := decode(resp, &lr); err != nil {
		return answer{}, err
	}
	if len(lr.Diagnostics) != c.lintWant[k] {
		return answer{}, fmt.Errorf("/v1/lint %s: %d findings, want %d",
			c.kernels[k].name, len(lr.Diagnostics), c.lintWant[k])
	}
	return answer{cached: lr.Cached}, nil
}

// stream reads a /v1/run/stream response to its end: the console chunks must
// add up to want, and the last event must be the result.
func (c *client) stream(src, want string) (answer, error) {
	resp, err := c.post("/v1/run/stream", serve.RunRequest{Source: src})
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	var a answer
	var console strings.Builder
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			if a.first.IsZero() {
				a.first = time.Now()
			}
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "start":
			var st serve.StreamStart
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return answer{}, err
			}
			a.cached = st.Cached
		case "console":
			var ch serve.StreamConsole
			if err := json.Unmarshal([]byte(data), &ch); err != nil {
				return answer{}, err
			}
			console.WriteString(ch.Chunk)
		case "error":
			return answer{}, fmt.Errorf("/v1/run/stream: error event %s", data)
		}
	}
	if err := sc.Err(); err != nil {
		return answer{}, err
	}
	if event != "result" {
		return answer{}, fmt.Errorf("/v1/run/stream: last event %q, want result", event)
	}
	if console.String() != want {
		return answer{}, fmt.Errorf("/v1/run/stream: console %q, want %q", console.String(), want)
	}
	return a, nil
}

// server is an in-process riscd behind a loopback listener.
type server struct {
	ts *httptest.Server
	c  *client
}

// startServer starts riscd and sends it warmup requests of the mix, each of
// which must be answered correctly.
func startServer(in serveInputs, ks []kernel, warmup int) (*server, error) {
	want := make([]int, len(ks))
	for i, k := range ks {
		diags, err := risc1.LintCm(k.source, risc1.RISCWindowed, risc1.LintOptions{})
		if err != nil {
			return nil, fmt.Errorf("lint reference %s: %w", k.name, err)
		}
		want[i] = len(diags)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Workers: serveWorkers}))
	n := conns()
	s := &server{ts: ts, c: &client{
		base:     ts.URL,
		hc:       &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}},
		kernels:  ks,
		lintWant: want,
	}}
	for i := 0; i < warmup; i++ {
		if _, err := s.c.do(in.at(i)); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return s, nil
}

func (s *server) close() {
	s.c.hc.CloseIdleConnections()
	s.ts.Close()
}

// sample is one request as the client saw it.
type sample struct {
	kind    int
	ms      float64 // from when it went out, or from its due time if it waited for a sender
	firstMS float64 // to the first stream event
	lateMS  float64 // how late the sender woke for its due time; <0 if it was busy
	cached  bool
	err     error
}

func newSample(kind int, ref time.Time, a answer, err error) sample {
	s := sample{kind: kind, ms: msSince(ref), cached: a.cached, err: err, lateMS: -1}
	if !a.first.IsZero() {
		s.firstMS = float64(a.first.Sub(ref)) / 1e6
	}
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// closedLoop runs conns() callers that each send their next request as soon
// as the previous one is answered, until dur has passed. The requests are
// from, from+1, ... of the mix.
func closedLoop(c *client, in serveInputs, from int, dur time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, conns())
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := in.at(from + int(next.Add(1)-1))
				t0 := time.Now()
				a, err := c.do(r)
				per[g] = append(per[g], newSample(r.kind, t0, a, err))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// openLoop sends request from+i of the mix at its due time sched[i], offset
// from now, whether or not earlier requests have been answered, from conns()
// senders. A request that finds
// both senders busy is timed from when it was due, so time it waited for an
// earlier answer counts against it. A request whose sender was idle is timed
// from when it went out: the sender sleeps to the due time and wakes late by
// the host's timer slack, about 0.75 ms on the reference host, which is the
// generator's delay and not the server's; it is reported as lateness.
func openLoop(c *client, in serveInputs, from int, sched []time.Duration) []sample {
	var next atomic.Int64
	per := make([][]sample, conns())
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				ref, late := due, -1.0
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					ref = time.Now()
					late = float64(ref.Sub(due)) / 1e6
				}
				r := in.at(from + i)
				a, err := c.do(r)
				s := newSample(r.kind, ref, a, err)
				s.lateMS = late
				per[g] = append(per[g], s)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// serveStats are the serve layer's client-side numbers in a traced run.
type serveStats struct {
	byKind           [numKinds]latencies
	streamFirst      latencies
	direct           latencies // risc1.RunImage of the hot program, no server
	cached, answered int
}

func (s *serveStats) add(x sample) {
	s.byKind[x.kind].add(x.ms, x.err == nil)
	if x.err != nil {
		return
	}
	s.answered++
	if x.cached {
		s.cached++
	}
	if x.kind == kindStream {
		s.streamFirst.add(x.firstMS, true)
	}
}

// serveProbe measures the serve layer unloaded, in every traced run: the hot
// program run directly, then probeRounds sequential requests of each kind
// against a fresh server.
func serveProbe(x *traced, seed uint64) error {
	ks := kernels()
	in := newServeInputs(seed, len(ks))
	srv, err := startServer(in, ks, 0)
	if err != nil {
		return err
	}
	defer srv.close()
	img, err := risc1.CompileToImage(hotSrc, risc1.RISCWindowed)
	if err != nil {
		return err
	}
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{})
		if err == nil && info.Console != hotWant {
			err = fmt.Errorf("direct run: console %q, want %q", info.Console, hotWant)
		}
		if err != nil {
			return err
		}
		x.serve.direct.add(msSince(t0), true)
	}
	for i := 0; i < probeRounds; i++ {
		for kind := 0; kind < numKinds; kind++ {
			r := request{kind: kind}
			switch kind {
			case kindCold:
				r.n = in.coldBase + probeFrom + i
			case kindLint:
				r.n = i % len(ks)
			}
			t0 := time.Now()
			a, err := srv.c.do(r)
			if err != nil {
				return fmt.Errorf("serve probe %s: %w", kindNames[kind], err)
			}
			x.serve.add(newSample(kind, t0, a, nil))
		}
	}
	return nil
}

// runServe runs the serve workload: a closed loop for half the run, which
// gives throughput, and open-loop Poisson arrivals at openLoopRate for the
// other half, which gives the latencies. The two alternate in serveSlices
// slices, and the host clock is sampled between slices, while the server is
// idle: beside the load it would time its share of a busy machine, and a
// server that used less CPU would make its own times look worse.
func runServe(o options) (*report, error) {
	ks := kernels()
	in := newServeInputs(o.seed, len(ks))
	srv, setups, err := setUp(o, func() (*server, error) { return startServer(in, ks, warmupRequests) }, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	rep := &report{}
	var x *traced
	if o.trace {
		if x, _, err = startTrace(o.seed, setups[0]); err != nil {
			return nil, err
		}
	}

	closedDur := max(seconds(o.seconds/2), 200*time.Millisecond) / serveSlices
	openDur := max(seconds(o.seconds/2), time.Duration(o.minOps)*time.Second/openLoopRate*2)
	sched, sliceDur := schedule(o.seed, openLoopRate, openDur), openDur/serveSlices
	var clock hostClock
	var closed, open []sample
	var elapsed time.Duration
	due := 0 // first arrival of the slice
	for k := time.Duration(1); k <= serveSlices; k++ {
		clock.burst()
		c, el := closedLoop(srv.c, in, closedFrom+len(closed), closedDur)
		closed, elapsed = append(closed, c...), elapsed+el
		clock.burst()
		var offsets []time.Duration
		for _, t := range sched[due:] {
			if t >= k*sliceDur {
				break
			}
			offsets = append(offsets, t-(k-1)*sliceDur)
		}
		open = append(open, openLoop(srv.c, in, openFrom+due, offsets)...)
		due += len(offsets)
	}
	clock.burst()

	okClosed := 0
	var lat, late latencies
	for i, s := range append(closed, open...) {
		rep.attempted++
		if s.err != nil {
			rep.fail(kindNames[s.kind], s.err)
		} else if i < len(closed) {
			okClosed++
		}
		if i >= len(closed) {
			lat.add(s.ms, s.err == nil)
			if s.lateMS >= 0 {
				late = append(late, s.lateMS)
			}
		}
		if x != nil {
			x.serve.add(s)
		}
	}
	rep.notes = append(rep.notes, fmt.Sprintf("closed loop: %d requests in %.2f s on %d connections; open loop: %d requests at %d rps; set-ups %.3f s",
		len(closed), elapsed.Seconds(), conns(), len(open), openLoopRate, setups))
	if p90, err := percentile(late, 90); err == nil {
		// Arrivals follow the seed's schedule only while the senders wake
		// close to their due times.
		verdict := "valid"
		if p90 > 1 {
			verdict = "INVALID: the generator ran late by more than 1 ms at p90"
		}
		rep.notes = append(rep.notes, fmt.Sprintf("generator lateness p90 %.3f ms over %d idle sends: %s", p90, len(late), verdict))
	}

	if x != nil {
		return rep, x.finish(rep, lat, &clock)
	}
	return rep, rep.endToEnd(setups, float64(okClosed)/elapsed.Seconds(), lat, &clock)
}
