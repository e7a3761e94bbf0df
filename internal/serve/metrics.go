// Hand-rolled Prometheus-text-format metrics. The repo's no-dependency rule
// extends to the serving layer: the exposition format is simple enough that
// a mutex, a few maps and a fixed histogram cover everything riscd needs.
package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"risc1"
)

// latencyBuckets are the histogram upper bounds in seconds. Simulated runs
// span ~100µs (cache-hit fib) to whole seconds (cold matmul on CX), so the
// buckets cover that range log-ish.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics aggregates the counters behind GET /metrics. One mutex guards it
// all: every operation is a handful of map/slice updates, far below the
// cost of the simulations being counted.
type metrics struct {
	mu        sync.Mutex
	requests  map[string]map[int]uint64 // endpoint → HTTP status → count
	bucketCnt []uint64                  // cumulative-style histogram counts per bucket
	latSum    float64
	latCount  uint64
	simInstrs uint64            // cumulative simulated instructions across all runs
	runs      map[string]uint64 // execution engine → /v1/run simulations started
	lintFound map[string]uint64 // severity → findings reported by /v1/lint

	// runEWMA is the recent mean wall-clock latency of run-endpoint
	// requests, as an exponentially weighted moving average (α=0.2, so
	// roughly the last dozen runs dominate). It feeds the adaptive
	// Retry-After hint: unlike latSum/latCount it forgets, which matters
	// when traffic shifts from cache-hot microbenchmarks to cold matmuls.
	runEWMA float64

	// streamEvents counts events emitted on /v1/run/stream, by event type.
	streamEvents map[string]uint64

	// Pipeline-model counters across all pipelined-target runs: runs by
	// control-transfer policy, plus the aggregate stall-cycle breakdown.
	pipelineRuns map[string]uint64 // policy → pipelined /v1/run simulations
	pipeLoadUse  uint64            // load-use interlock stall cycles
	pipeWindow   uint64            // window-trap drain stall cycles
	pipeMemPort  uint64            // shared-memory-port structural stall cycles
	pipeFlush    uint64            // squash-policy flush bubbles
	pipeCycles   uint64            // pipeline cycles retired

	// Shared-memory machine counters across all multi-core /v1/run
	// simulations: runs, total cores engaged, and interconnect-arbitration
	// cycles charged by the contention model.
	smpRuns       uint64
	smpCores      uint64
	smpContention uint64

	// Dynamic race-detector counters: /v1/run simulations that asked for
	// the detector, and the data races it reported across all of them.
	raceRuns  uint64
	raceFound uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests:  map[string]map[int]uint64{},
		bucketCnt: make([]uint64, len(latencyBuckets)),
		runs:      map[string]uint64{},
		lintFound: map[string]uint64{},

		streamEvents: map[string]uint64{},
		pipelineRuns: map[string]uint64{},
	}
}

// observe records one finished HTTP request.
func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	secs := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus, ok := m.requests[endpoint]
	if !ok {
		byStatus = map[int]uint64{}
		m.requests[endpoint] = byStatus
	}
	byStatus[status]++
	for i, ub := range latencyBuckets {
		if secs <= ub {
			m.bucketCnt[i]++
		}
	}
	m.latSum += secs
	m.latCount++
	if endpoint == "/v1/run" || endpoint == "/v1/run/stream" {
		if m.runEWMA == 0 {
			m.runEWMA = secs
		} else {
			m.runEWMA = 0.2*secs + 0.8*m.runEWMA
		}
	}
}

// recentRunSeconds reports the EWMA of run-endpoint latency; zero until the
// first run endpoint request completes.
func (m *metrics) recentRunSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runEWMA
}

// addStreamEvents counts events emitted on one /v1/run/stream response.
func (m *metrics) addStreamEvents(kind string, n uint64) {
	if n == 0 {
		return
	}
	m.mu.Lock()
	m.streamEvents[kind] += n
	m.mu.Unlock()
}

// addLintFindings counts the analyzer's findings by severity.
func (m *metrics) addLintFindings(diags []risc1.Diagnostic) {
	if len(diags) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range diags {
		m.lintFound[d.Severity.String()]++
	}
}

// addRun counts one /v1/run or /v1/run/stream simulation, faulted or not,
// under the engine the request named. That is not always the engine that
// ran: a pipelined run uses the block engine, a CISC run its own
// interpreter and a race run the step engine, and each counts under auto
// when the request named none.
func (m *metrics) addRun(engine string) {
	m.mu.Lock()
	m.runs[engine]++
	m.mu.Unlock()
}

// addReport accumulates one successful run's report: its simulated
// instructions, pipeline counters on the pipelined
// target, machine counters on a multi-core run, and, when the request asked
// for the detector (race), the races it found.
func (m *metrics) addReport(info *risc1.RunInfo, race bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.simInstrs += info.Instructions
	if p := info.Pipeline; p != nil {
		m.pipelineRuns[p.Policy]++
		m.pipeLoadUse += p.LoadUseStallCycles
		m.pipeWindow += p.WindowStallCycles
		m.pipeMemPort += p.MemPortStallCycles
		m.pipeFlush += p.FlushBubbleCycles
		m.pipeCycles += p.Cycles
	}
	if si := info.SMP; si != nil {
		m.smpRuns++
		m.smpCores += uint64(si.Cores)
		m.smpContention += si.ContentionCycles
	}
	if race {
		m.raceRuns++
		m.raceFound += uint64(len(info.Races))
	}
}

// gauges are sampled at render time so /metrics always reflects the live
// queue and pool state rather than a counter updated on a schedule.
type gauges struct {
	queueDepth    int
	inflight      int
	streamsActive int
	cacheHits     uint64
	cacheMisses   uint64
	cacheEntries  int
}

// render writes the Prometheus text exposition. Output is deterministic
// (labels sorted) so tests can assert on substrings without flaking.
func (m *metrics) render(g gauges) string {
	m.mu.Lock()
	defer m.mu.Unlock()

	var b strings.Builder
	b.WriteString("# HELP riscd_requests_total HTTP requests served, by endpoint and status.\n")
	b.WriteString("# TYPE riscd_requests_total counter\n")
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		statuses := make([]int, 0, len(m.requests[ep]))
		for st := range m.requests[ep] {
			statuses = append(statuses, st)
		}
		sort.Ints(statuses)
		for _, st := range statuses {
			fmt.Fprintf(&b, "riscd_requests_total{endpoint=%q,status=\"%d\"} %d\n",
				ep, st, m.requests[ep][st])
		}
	}

	b.WriteString("# HELP riscd_request_duration_seconds HTTP request latency.\n")
	b.WriteString("# TYPE riscd_request_duration_seconds histogram\n")
	for i, ub := range latencyBuckets {
		fmt.Fprintf(&b, "riscd_request_duration_seconds_bucket{le=\"%g\"} %d\n", ub, m.bucketCnt[i])
	}
	fmt.Fprintf(&b, "riscd_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.latCount)
	fmt.Fprintf(&b, "riscd_request_duration_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(&b, "riscd_request_duration_seconds_count %d\n", m.latCount)

	b.WriteString("# HELP riscd_queue_depth Requests admitted but waiting for a worker.\n")
	b.WriteString("# TYPE riscd_queue_depth gauge\n")
	fmt.Fprintf(&b, "riscd_queue_depth %d\n", g.queueDepth)

	b.WriteString("# HELP riscd_inflight_runs Requests holding a worker slot.\n")
	b.WriteString("# TYPE riscd_inflight_runs gauge\n")
	fmt.Fprintf(&b, "riscd_inflight_runs %d\n", g.inflight)

	b.WriteString("# HELP riscd_image_cache_hits_total Compiled-image cache hits.\n")
	b.WriteString("# TYPE riscd_image_cache_hits_total counter\n")
	fmt.Fprintf(&b, "riscd_image_cache_hits_total %d\n", g.cacheHits)

	b.WriteString("# HELP riscd_image_cache_misses_total Compiled-image cache misses.\n")
	b.WriteString("# TYPE riscd_image_cache_misses_total counter\n")
	fmt.Fprintf(&b, "riscd_image_cache_misses_total %d\n", g.cacheMisses)

	b.WriteString("# HELP riscd_image_cache_entries Compiled images currently cached.\n")
	b.WriteString("# TYPE riscd_image_cache_entries gauge\n")
	fmt.Fprintf(&b, "riscd_image_cache_entries %d\n", g.cacheEntries)

	b.WriteString("# HELP riscd_stream_active Streaming runs with an open /v1/run/stream connection.\n")
	b.WriteString("# TYPE riscd_stream_active gauge\n")
	fmt.Fprintf(&b, "riscd_stream_active %d\n", g.streamsActive)

	b.WriteString("# HELP riscd_stream_events_total Events emitted on /v1/run/stream, by event type.\n")
	b.WriteString("# TYPE riscd_stream_events_total counter\n")
	kinds := make([]string, 0, len(m.streamEvents))
	for k := range m.streamEvents {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "riscd_stream_events_total{type=%q} %d\n", k, m.streamEvents[k])
	}

	b.WriteString("# HELP riscd_runs_total Simulations run for /v1/run and /v1/run/stream, by the engine the request named, not the one that ran.\n")
	b.WriteString("# TYPE riscd_runs_total counter\n")
	engines := make([]string, 0, len(m.runs))
	for e := range m.runs {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	for _, e := range engines {
		fmt.Fprintf(&b, "riscd_runs_total{engine=%q} %d\n", e, m.runs[e])
	}

	b.WriteString("# HELP riscd_simulated_instructions_total Guest instructions simulated for /v1/run.\n")
	b.WriteString("# TYPE riscd_simulated_instructions_total counter\n")
	fmt.Fprintf(&b, "riscd_simulated_instructions_total %d\n", m.simInstrs)

	b.WriteString("# HELP riscd_pipeline_runs_total Pipelined-target /v1/run simulations, by control-transfer policy.\n")
	b.WriteString("# TYPE riscd_pipeline_runs_total counter\n")
	policies := make([]string, 0, len(m.pipelineRuns))
	for p := range m.pipelineRuns {
		policies = append(policies, p)
	}
	sort.Strings(policies)
	for _, p := range policies {
		fmt.Fprintf(&b, "riscd_pipeline_runs_total{policy=%q} %d\n", p, m.pipelineRuns[p])
	}

	b.WriteString("# HELP riscd_pipeline_cycles_total Cycles retired by the pipeline model for /v1/run.\n")
	b.WriteString("# TYPE riscd_pipeline_cycles_total counter\n")
	fmt.Fprintf(&b, "riscd_pipeline_cycles_total %d\n", m.pipeCycles)

	b.WriteString("# HELP riscd_pipeline_stall_cycles_total Pipeline stall cycles for /v1/run, by cause.\n")
	b.WriteString("# TYPE riscd_pipeline_stall_cycles_total counter\n")
	fmt.Fprintf(&b, "riscd_pipeline_stall_cycles_total{cause=\"flush\"} %d\n", m.pipeFlush)
	fmt.Fprintf(&b, "riscd_pipeline_stall_cycles_total{cause=\"load_use\"} %d\n", m.pipeLoadUse)
	fmt.Fprintf(&b, "riscd_pipeline_stall_cycles_total{cause=\"mem_port\"} %d\n", m.pipeMemPort)
	fmt.Fprintf(&b, "riscd_pipeline_stall_cycles_total{cause=\"window\"} %d\n", m.pipeWindow)

	b.WriteString("# HELP riscd_smp_runs_total Multi-core /v1/run simulations on the shared-memory machine.\n")
	b.WriteString("# TYPE riscd_smp_runs_total counter\n")
	fmt.Fprintf(&b, "riscd_smp_runs_total %d\n", m.smpRuns)

	b.WriteString("# HELP riscd_smp_cores_total Cores engaged across multi-core /v1/run simulations.\n")
	b.WriteString("# TYPE riscd_smp_cores_total counter\n")
	fmt.Fprintf(&b, "riscd_smp_cores_total %d\n", m.smpCores)

	b.WriteString("# HELP riscd_smp_contention_cycles_total Interconnect-arbitration cycles charged by the contention model.\n")
	b.WriteString("# TYPE riscd_smp_contention_cycles_total counter\n")
	fmt.Fprintf(&b, "riscd_smp_contention_cycles_total %d\n", m.smpContention)

	b.WriteString("# HELP riscd_race_runs_total /v1/run simulations under the dynamic race detector.\n")
	b.WriteString("# TYPE riscd_race_runs_total counter\n")
	fmt.Fprintf(&b, "riscd_race_runs_total %d\n", m.raceRuns)

	b.WriteString("# HELP riscd_races_found_total Data races reported by the dynamic detector across all runs.\n")
	b.WriteString("# TYPE riscd_races_found_total counter\n")
	fmt.Fprintf(&b, "riscd_races_found_total %d\n", m.raceFound)

	b.WriteString("# HELP riscd_lint_findings_total Static-analyzer findings reported by /v1/lint, by severity.\n")
	b.WriteString("# TYPE riscd_lint_findings_total counter\n")
	sevs := make([]string, 0, len(m.lintFound))
	for sev := range m.lintFound {
		sevs = append(sevs, sev)
	}
	sort.Strings(sevs)
	for _, sev := range sevs {
		fmt.Fprintf(&b, "riscd_lint_findings_total{severity=%q} %d\n", sev, m.lintFound[sev])
	}
	return b.String()
}
