package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer. Spans of one op share OpID; Parent is
// the ID of the enclosing span, 0 for an op's root.
type span struct {
	ID     int    `json:"id"`
	OpID   int    `json:"op_id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Root span names. An "op" span wraps one op run through the layers one call
// at a time; a "facade" span wraps the same op through the risc1 facade, so
// the two totals give the cost of decomposing and timing it.
const (
	spanOp     = "op"
	spanFacade = "facade"
)

// tracer records spans in memory, on one goroutine, and the counters the
// per-layer ratios need. The benchmark's own files open and close every span
// around calls into the layers; nothing inside the layers is instrumented.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indexes into spans of the spans still running
	op    int
	c     counters
}

// counters are work counts taken at the same layer boundaries as the spans.
type counters struct {
	riscCompiles, wideRetries  int
	riscImages, riscImageBytes int
	lintImages, lintFindings   int

	coreLoads                        int
	coreLoadAllocBytes               uint64
	coreRuns                         int
	coreInstr, coreTraceInstr        uint64
	coreTraces, coreSideExits        uint64
	pipeInstr, pipeCycles, pipeStall uint64
	pipeSlots, pipeFilled            uint64
	ciscInstr                        uint64
	smpInstr, smpRounds              uint64
	smpContention, smpCoreCycles     uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open one. A root span starts
// a new op.
func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	} else {
		t.op++
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, OpID: t.op, Parent: parent, Name: name, Start: t.now(),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

// call runs f inside a span named name and passes its results on.
func call[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	t.begin(name)
	defer t.end()
	return f()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// goCosts is a snapshot of the Go runtime's process-wide costs.
type goCosts struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

func readGoCosts() goCosts {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return goCosts{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// gcPct is the share of CPU time the garbage collector took between a and b.
func gcPct(a, b goCosts) (float64, error) {
	total := b.totalCPU - a.totalCPU
	if total <= 0 {
		return 0, fmt.Errorf("no CPU time recorded between snapshots")
	}
	return 100 * (b.gcCPU - a.gcCPU) / total, nil
}
