package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const fibSrc = `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { putint(fib(10)); return 0; }`

// loopAsm spins forever: the delayed jump targets itself.
const loopAsm = "main: jmpr alw,main\n nop\n"

// parSrc spawns two workers that fold their IDs into a lock-guarded
// accumulator: 0+1+2 under any interleaving.
const parSrc = `
int total;
void worker(int k) {
    lock(0);
    total += k + 1;
    unlock(0);
}
int main() {
    int h1; int h2;
    h1 = spawn(worker, 0);
    h2 = spawn(worker, 1);
    join(h1);
    join(h2);
    putint(total);
    return 0;
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func decodeError(t *testing.T, raw []byte) ErrorDetail {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, raw)
	}
	return e.Error
}

// TestRunEndpoint runs one program on all four targets and checks the
// result and the cache-hit flag on a repeat request.
func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, target := range []string{"windowed", "flat", "cisc", "pipelined"} {
		resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc, Target: target})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", target, resp.StatusCode, raw)
		}
		var run RunResponse
		if err := json.Unmarshal(raw, &run); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if run.Console != "55" {
			t.Errorf("%s: console = %q, want 55", target, run.Console)
		}
		if run.Cached {
			t.Errorf("%s: first request reported a cache hit", target)
		}
		if run.Instructions == 0 || run.Cycles == 0 || run.CodeBytes == 0 {
			t.Errorf("%s: empty stats: %+v", target, run)
		}

		resp, raw = postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc, Target: target})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s repeat: status %d\n%s", target, resp.StatusCode, raw)
		}
		var again RunResponse
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Errorf("%s: repeat request missed the image cache", target)
		}
		if again.Console != run.Console || again.Cycles != run.Cycles {
			t.Errorf("%s: cached run diverged: %+v vs %+v", target, again, run)
		}
	}
}

// TestRunAssembly accepts machine-level source via lang=asm.
func TestRunAssembly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "main: add r0,#6,r10\n stl r10,(r0)#-252\n ret r25,#8\n nop\n"
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: src, Lang: "asm"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, raw)
	}
	var run RunResponse
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	if run.Console != "6" {
		t.Errorf("console = %q, want 6", run.Console)
	}
}

// TestRunCompileError pins the 400 + typed diagnostics contract.
func TestRunCompileError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/run",
		RunRequest{Source: "int main( { return 0; }"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "compile_error" {
		t.Errorf("code = %q, want compile_error (%s)", d.Code, raw)
	}

	// Assembler failures aggregate per-line diagnostics.
	resp, raw = postJSON(t, ts.URL+"/v1/run",
		RunRequest{Source: "main: bogus r1\n worse r2\n", Lang: "asm"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("asm status = %d, want 400\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); len(d.Diagnostics) < 2 {
		t.Errorf("want >=2 diagnostics, got %+v", d)
	}
}

// TestRunBadRequests covers malformed JSON, empty source and bad enums.
func TestRunBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"malformed": "{not json",
		"empty":     `{"source":""}`,
		"target":    `{"source":"int main(){return 0;}","target":"vax"}`,
		"lang":      `{"source":"x","lang":"fortran"}`,
		"engine":    `{"source":"x","engine":"warp"}`,
		"policy":    `{"source":"x","policy":"oracle"}`,
		"unknown":   `{"source":"x","surprise":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400\n%s", name, resp.StatusCode, raw)
		}
	}
}

// TestRunDeadline pins the 408 mapping: an infinite loop with a tiny
// request deadline.
func TestRunDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/run",
		RunRequest{Source: loopAsm, Lang: "asm", TimeoutMS: 50})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "deadline" {
		t.Errorf("code = %q, want deadline", d.Code)
	}
}

// TestRunCycleLimit pins the 422 mapping for an exhausted cycle budget,
// including the fault location fields.
func TestRunCycleLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/run",
		RunRequest{Source: loopAsm, Lang: "asm", MaxCycles: 1000})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422\n%s", resp.StatusCode, raw)
	}
	d := decodeError(t, raw)
	if d.Code != "cycle_limit" {
		t.Errorf("code = %q, want cycle_limit", d.Code)
	}
	if d.Cycle != 1000 || d.PC == "" || d.Inst == "" {
		t.Errorf("fault location not populated: %+v", d)
	}
}

// TestRunRuntimeFault pins 422 for a genuine guest fault (misaligned store).
func TestRunRuntimeFault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "main: stl r0,(r0)#2\n ret r25,#8\n nop\n"
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: src, Lang: "asm"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "runtime_fault" {
		t.Errorf("code = %q, want runtime_fault", d.Code)
	}
}

// metricValue extracts one sample from Prometheus text output.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestShedding429 fills a 1-worker, 0-queue server with an infinite loop
// and checks the next request is refused immediately with 429 + Retry-After.
func TestShedding429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, Timeout: 5 * time.Second})

	slow := make(chan struct{})
	go func() {
		defer close(slow)
		postJSON(t, ts.URL+"/v1/run",
			RunRequest{Source: loopAsm, Lang: "asm", TimeoutMS: 1500})
	}()

	// Wait until the slow run holds the only worker slot.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, raw := getBody(t, ts.URL+"/metrics")
		if metricValue(t, string(raw), "riscd_inflight_runs") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow run never occupied the worker slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if d := decodeError(t, raw); d.Code != "overloaded" {
		t.Errorf("code = %q, want overloaded", d.Code)
	}
	<-slow

	// The shed request must show up in the request counters.
	_, raw = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(raw), `riscd_requests_total{endpoint="/v1/run",status="429"} 1`) {
		t.Errorf("429 not counted:\n%s", raw)
	}
}

// TestDrainRefusesNewWork pins the shutdown contract: after Drain, healthz
// and run return 503 while the metrics endpoint stays up.
func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Drain()
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Drain: %d, want 503", resp.StatusCode)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run after Drain: %d, want 503\n%s", resp.StatusCode, raw)
	}
	if resp, _ := getBody(t, ts.URL+"/metrics"); resp.StatusCode != http.StatusOK {
		t.Errorf("metrics after Drain: %d, want 200", resp.StatusCode)
	}
}

// TestCancelRunsAbortsInflight starts an infinite run and kills it through
// CancelRuns — the graceful-shutdown path for stuck guests.
func TestCancelRunsAbortsInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: 30 * time.Second})
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: loopAsm, Lang: "asm"})
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, raw := getBody(t, ts.URL+"/metrics")
		if metricValue(t, string(raw), "riscd_inflight_runs") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.CancelRuns()
	select {
	case status := <-done:
		if status != http.StatusServiceUnavailable {
			t.Errorf("canceled run: status %d, want 503", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CancelRuns did not abort the in-flight run")
	}
}

// TestDisasmEndpoint checks both languages disassemble.
func TestDisasmEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/disasm", DisasmRequest{Source: fibSrc, Target: "cisc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, raw)
	}
	var d DisasmResponse
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Listing, "fib") {
		t.Errorf("listing lacks the fib symbol:\n%s", d.Listing)
	}

	// A disasm after a run of the same source hits the same image cache.
	postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc, Target: "cisc"})
	resp, raw = postJSON(t, ts.URL+"/v1/disasm", DisasmRequest{Source: fibSrc, Target: "cisc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Cached {
		t.Error("disasm after run of same source missed the cache")
	}
}

// TestLintEndpoint checks the analyzer route: a recursive benchmark gets
// its reg-window info (findings are a 200, not an error), a hazardous
// assembly program gets its warning with a source line, and the findings
// counter shows up in /metrics.
func TestLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: fibSrc, Target: "windowed"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, raw)
	}
	var rep LintResponse
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Warnings != 0 {
		t.Errorf("compiled fib linted dirty: %+v", rep)
	}
	if rep.Infos == 0 {
		t.Errorf("recursive fib produced no reg-window info: %+v", rep)
	}

	// A delayed call whose slot stores: the store runs in the callee's
	// window — exactly the hazard the delay-slot pass exists for.
	hazard := "main:\n callr r25,f\n stl r9,(r0)#-252\n ret r25,#8\n nop\nf:\n ret r25,#0\n nop\n"
	resp, raw = postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: hazard, Lang: "asm"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hazard status %d\n%s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Warnings != 1 || len(rep.Diagnostics) == 0 {
		t.Fatalf("hazard not flagged: %+v", rep)
	}
	d := rep.Diagnostics[0]
	if d.Pass != "delay-slot" || d.Line != 3 {
		t.Errorf("diagnostic = %+v, want delay-slot at line 3", d)
	}

	// Same source again: the lint path shares the compiled-image cache.
	resp, raw = postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: hazard, Lang: "asm"})
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Cached {
		t.Error("repeat lint missed the image cache")
	}

	_, raw = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(raw), `riscd_lint_findings_total{severity="warning"} 2`) {
		t.Errorf("lint findings counter missing or wrong:\n%s", raw)
	}
}

// TestLintEndpointClean pins the empty-result shape: a warning-free program
// yields an empty array (never null) and zero counts.
func TestLintEndpointClean(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/lint",
		LintRequest{Source: "int main() { putint(42); return 0; }", Target: "flat"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"diagnostics":[]`) {
		t.Errorf("clean program: want empty diagnostics array, got %s", raw)
	}
	var rep LintResponse
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors+rep.Warnings+rep.Infos != 0 {
		t.Errorf("clean program reported findings: %+v", rep)
	}
}

// TestLintEndpointBadInput covers the failure contract: source that does not
// compile is a 400 compile_error (linting never ran), and request-shape
// problems are plain 400s.
func TestLintEndpointBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/lint",
		LintRequest{Source: "int main( { return 0; }"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "compile_error" {
		t.Errorf("code = %q, want compile_error (%s)", d.Code, raw)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: "  "})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty source: status %d, want 400\n%s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: "int main() {}", Target: "vax"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad target: status %d, want 400\n%s", resp.StatusCode, raw)
	}
}

// TestBenchmarksEndpoint checks the suite listing.
func TestBenchmarksEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := getBody(t, ts.URL+"/v1/benchmarks")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var list []BenchmarkInfo
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, b := range list {
		names[b.Name] = true
	}
	for _, want := range []string{"fib", "hanoi", "acker", "sieve", "search"} {
		if !names[want] {
			t.Errorf("benchmark %q missing from listing", want)
		}
	}
}

// TestExperimentEndpoint renders a static experiment and rejects unknown
// IDs with 404.
func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := getBody(t, ts.URL+"/v1/experiments/E2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, raw)
	}
	var e ExperimentResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.ID != "E2" || !strings.Contains(e.Table, "RISC I") {
		t.Errorf("unexpected experiment body: %+v", e)
	}

	resp, raw = getBody(t, ts.URL+"/v1/experiments/E99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "not_found" {
		t.Errorf("code = %q, want not_found", d.Code)
	}
}

// stubLab is an Experimenter that answers instantly with a canned table,
// or an error when told to fail — the injection seam that lets serving
// tests avoid real benchmark sweeps.
type stubLab struct {
	table string
	err   error
}

func (l *stubLab) Experiment(id string) (string, error) {
	if l.err != nil {
		return "", l.err
	}
	return l.table + " (" + id + ")", nil
}

// TestInjectedLab proves Config.Lab substitutes the experiment backend:
// responses come from the stub, and a failing stub maps to a typed 500.
func TestInjectedLab(t *testing.T) {
	_, ts := newTestServer(t, Config{Lab: &stubLab{table: "stub table"}})
	resp, raw := getBody(t, ts.URL+"/v1/experiments/E4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, raw)
	}
	var e ExperimentResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.Table != "stub table (E4)" {
		t.Errorf("table = %q, want the stub's answer", e.Table)
	}

	_, ts = newTestServer(t, Config{Lab: &stubLab{err: errors.New("lab exploded")}})
	resp, raw = getBody(t, ts.URL+"/v1/experiments/E4")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing lab: status %d, want 500\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "internal" {
		t.Errorf("code = %q, want internal", d.Code)
	}
}

// TestHealthzAndMetrics smoke-checks the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(raw) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, raw)
	}
	postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc})
	_, raw = getBody(t, ts.URL+"/metrics")
	text := string(raw)
	for _, want := range []string{
		`riscd_requests_total{endpoint="/v1/run",status="200"} 1`,
		"riscd_request_duration_seconds_bucket",
		"riscd_image_cache_misses_total 1",
		"riscd_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if metricValue(t, text, "riscd_simulated_instructions_total") <= 0 {
		t.Error("simulated instruction counter did not advance")
	}
}

// TestConsoleTruncationSurfaced runs a guest that floods the console and
// checks the truncation marker reaches the response. The server's console
// device cap (1 MiB) is what keeps such guests from growing the process.
func TestConsoleTruncationSurfaced(t *testing.T) {
	src := `
int main() {
    int i;
    for (i = 0; i < 300000; i = i + 1) putint(1234567);
    return 0;
}`
	_, ts := newTestServer(t, Config{Timeout: 60 * time.Second, MaxCycles: 400_000_000})
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, raw)
	}
	var run RunResponse
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	if !run.ConsoleTruncated {
		t.Error("console_truncated = false for a flooding guest")
	}
	if len(run.Console) > 1<<20 {
		t.Errorf("console grew past the cap: %d bytes", len(run.Console))
	}
}

// TestCacheHitRate drives repeated identical traffic and asserts the >90%
// hit rate the acceptance criteria demand.
func TestCacheHitRate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 40
	for i := 0; i < n; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d\n%s", i, resp.StatusCode, raw)
		}
	}
	_, raw := getBody(t, ts.URL+"/metrics")
	hits := metricValue(t, string(raw), "riscd_image_cache_hits_total")
	misses := metricValue(t, string(raw), "riscd_image_cache_misses_total")
	if rate := hits / (hits + misses); rate <= 0.9 {
		t.Errorf("cache hit rate = %.2f (hits %v, misses %v), want > 0.90", rate, hits, misses)
	}
}

// TestConcurrentTrafficAndLeaks hammers the pool and a tiny LRU from many
// goroutines (meaningful under -race), then asserts the server leaks no
// goroutines once traffic stops.
func TestConcurrentTrafficAndLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8, CacheEntries: 4})
	var wg sync.WaitGroup
	var shed, ok, other atomic64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				// Cycle through more sources than cache entries so the
				// LRU evicts under concurrent access.
				want := fmt.Sprint((g*15 + i) % 6)
				src := fmt.Sprintf("int main() { putint(%s); return 0; }", want)
				// Every third request takes the streaming path, so the SSE
				// writer, the monitor hooks and the buffered path all race
				// over the same pool, cache and metrics.
				if i%3 == 2 {
					resp := postStream(t, context.Background(), ts.URL, RunRequest{Source: src})
					if resp.StatusCode == http.StatusTooManyRequests {
						resp.Body.Close()
						shed.add(1)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						resp.Body.Close()
						other.add(1)
						t.Errorf("stream status %d", resp.StatusCode)
						continue
					}
					events := readAllSSE(t, resp.Body)
					resp.Body.Close()
					if last := events[len(events)-1]; last.name != "result" {
						t.Errorf("stream terminal event %q: %s", last.name, last.data)
					} else {
						ok.add(1)
					}
					continue
				}
				resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: src})
				switch resp.StatusCode {
				case http.StatusOK:
					ok.add(1)
					var run RunResponse
					if err := json.Unmarshal(raw, &run); err != nil {
						t.Error(err)
					} else if run.Console != want {
						t.Errorf("console = %q, want %q", run.Console, want)
					}
				case http.StatusTooManyRequests:
					shed.add(1)
				default:
					other.add(1)
					t.Errorf("unexpected status %d: %s", resp.StatusCode, raw)
				}
			}
		}(g)
	}
	wg.Wait()
	if ok.load() == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("ok=%d shed=%d other=%d", ok.load(), shed.load(), other.load())

	ts.Close()
	s.CancelRuns()

	// The worker pool spawns nothing persistent: once the httptest server
	// closes its keep-alive connections, the goroutine count must return
	// to the baseline (small slack for the test runtime itself).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// atomic64 is a tiny counter safe under -race without importing sync/atomic
// typed wrappers everywhere.
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestRunEngineSelection pins the engine knob on /v1/run: both engines and
// the default produce identical results, the engine spelling is validated
// (the core's internal block tier has no public spelling), and the
// per-engine run counter shows up in /metrics.
func TestRunEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "main: add r0,#6,r10\n stl r10,(r0)#-252\n ret r25,#8\n nop\n"
	engines := []string{"step", "auto", ""}
	got := make([]RunResponse, len(engines))
	for i, engine := range engines {
		resp, raw := postJSON(t, ts.URL+"/v1/run",
			RunRequest{Source: src, Lang: "asm", Engine: engine})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d\n%s", engine, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(engines); i++ {
		got[i].Cached = got[0].Cached // the image cache hit is the only allowed difference
		if !reflect.DeepEqual(got[0], got[i]) {
			t.Errorf("engines disagree:\n%s: %+v\n%s: %+v",
				engines[0], got[0], engines[i], got[i])
		}
	}

	for _, engine := range []string{"warp", "block", "trace"} {
		resp, raw := postJSON(t, ts.URL+"/v1/run",
			RunRequest{Source: src, Lang: "asm", Engine: engine})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("engine %q: status %d\n%s", engine, resp.StatusCode, raw)
		}
		if d := decodeError(t, raw); d.Code != "bad_request" {
			t.Errorf("engine %q: code %q, want bad_request", engine, d.Code)
		}
	}

	_, raw := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`riscd_runs_total{engine="step"} 1`,
		`riscd_runs_total{engine="auto"} 2`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRunPipelined pins the pipelined target end to end: the response
// carries the cycle-accurate CPI/stall breakdown, the two control policies
// differ only in flush bubbles, invalid policies are rejected with a typed
// 400, and the pipeline counters show up in /metrics.
func TestRunPipelined(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var byPolicy [2]RunResponse
	for i, policy := range []string{"delayed", "squash"} {
		resp, raw := postJSON(t, ts.URL+"/v1/run",
			RunRequest{Source: fibSrc, Target: "pipelined", Policy: policy})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", policy, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &byPolicy[i]); err != nil {
			t.Fatal(err)
		}
		run := byPolicy[i]
		if run.Console != "55" {
			t.Errorf("%s: console = %q, want 55", policy, run.Console)
		}
		p := run.Pipeline
		if p == nil {
			t.Fatalf("%s: response has no pipeline section\n%s", policy, raw)
		}
		if p.Policy != policy {
			t.Errorf("policy echoed as %q, want %q", p.Policy, policy)
		}
		if p.CPI < 1 || p.Cycles != run.Cycles {
			t.Errorf("%s: inconsistent pipeline stats: %+v vs cycles %d", policy, p, run.Cycles)
		}
		if p.RefCycles == 0 || p.RefCycles == p.Cycles {
			t.Errorf("%s: ref cycles %d vs pipelined %d — single-cycle baseline lost",
				policy, p.RefCycles, p.Cycles)
		}
	}
	dl, sq := byPolicy[0].Pipeline, byPolicy[1].Pipeline
	if dl.FlushBubbleCycles != 0 {
		t.Errorf("delayed policy charged %d flush bubbles", dl.FlushBubbleCycles)
	}
	if sq.Cycles-dl.Cycles != sq.FlushBubbleCycles {
		t.Errorf("policy gap %d cycles, flush bubbles %d", sq.Cycles-dl.Cycles, sq.FlushBubbleCycles)
	}

	// A non-pipelined run must not grow a pipeline section.
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc, Target: "windowed"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed: status %d\n%s", resp.StatusCode, raw)
	}
	var plain RunResponse
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Pipeline != nil {
		t.Error("windowed run reported pipeline stats")
	}

	resp, raw = postJSON(t, ts.URL+"/v1/run",
		RunRequest{Source: fibSrc, Target: "pipelined", Policy: "oracle"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy: status %d\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "bad_request" {
		t.Errorf("bad policy: code %q, want bad_request", d.Code)
	}

	_, raw = getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`riscd_pipeline_runs_total{policy="delayed"} 1`,
		`riscd_pipeline_runs_total{policy="squash"} 1`,
		"riscd_pipeline_cycles_total ",
		`riscd_pipeline_stall_cycles_total{cause="flush"} `,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRunSMP covers the multi-core run path: a parallel program on the
// shared-memory machine, the SMP response section, the server core ceiling,
// the windowed-only rule, and the smp metrics counters.
func TestRunSMP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxCores: 4})

	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: parSrc, Cores: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cores=2: status %d: %s", resp.StatusCode, raw)
	}
	var out RunResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Console != "3" {
		t.Fatalf("console %q, want 3", out.Console)
	}
	if out.SMP == nil || out.SMP.Cores != 2 || out.SMP.Spawns == 0 {
		t.Fatalf("SMP section %+v, want 2 cores with spawns", out.SMP)
	}
	if len(out.SMP.PerCore) != 2 {
		t.Fatalf("per-core stats %+v, want 2 entries", out.SMP.PerCore)
	}

	// Single-core requests must not grow an SMP section.
	resp, raw = postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc, Cores: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cores=1: status %d: %s", resp.StatusCode, raw)
	}
	out = RunResponse{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.SMP != nil {
		t.Fatalf("cores=1 grew an SMP section: %+v", out.SMP)
	}

	// Above the server ceiling and on the wrong target: typed 400s.
	for _, req := range []RunRequest{
		{Source: parSrc, Cores: 8},
		{Source: parSrc, Cores: -1},
		{Source: fibSrc, Cores: 2, Target: "cisc"},
		{Source: fibSrc, Cores: 2, Target: "flat"},
		{Source: fibSrc, Cores: 2, Target: "pipelined"},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cores=%d target=%q: status %d, want 400: %s",
				req.Cores, req.Target, resp.StatusCode, raw)
		}
		if d := decodeError(t, raw); d.Code != "bad_request" {
			t.Fatalf("cores=%d target=%q: code %q, want bad_request", req.Cores, req.Target, d.Code)
		}
	}

	// The multi-core run above must show up in the smp counters.
	resp, raw = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	body := string(raw)
	for _, want := range []string{
		"riscd_smp_runs_total 1\n",
		"riscd_smp_cores_total 2\n",
		"riscd_smp_contention_cycles_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// racySrc increments a shared global from two unlocked workers; each loops
// long enough that the instances always overlap, so the detector flags it
// under every schedule.
const racySrc = `
int counter;
void w(int k) {
    int i;
    i = 0;
    while (i < 200) {
        counter = counter + k;
        i = i + 1;
    }
}
int main() {
    int h1; int h2;
    h1 = spawn(w, 1);
    h2 = spawn(w, 2);
    join(h1);
    join(h2);
    putint(counter);
    return 0;
}`

// TestRunRace covers the dynamic race detector on /v1/run: a racy program
// reports its races with core and line attribution, a locked program
// reports none, the windowed-only rule holds, and the race counters tick.
func TestRunRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxCores: 4})

	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: racySrc, Cores: 4, Race: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("racy run: status %d: %s", resp.StatusCode, raw)
	}
	var out RunResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Races) == 0 {
		t.Fatalf("racy program reported no races: %s", raw)
	}
	for _, r := range out.Races {
		if r.Prev.Core == r.Curr.Core {
			t.Errorf("race %+v pairs two accesses from the same core", r)
		}
		if r.Prev.Line == 0 || r.Curr.Line == 0 {
			t.Errorf("race %+v lacks line attribution", r)
		}
	}

	// A lock-disciplined program under the same flag: no races, right answer.
	resp, raw = postJSON(t, ts.URL+"/v1/run", RunRequest{Source: parSrc, Cores: 2, Race: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean run: status %d: %s", resp.StatusCode, raw)
	}
	out = RunResponse{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Console != "3" || len(out.Races) != 0 {
		t.Fatalf("clean run under race mode: console %q, races %+v", out.Console, out.Races)
	}

	// The detector rides the shared-memory machine: windowed-only.
	resp, raw = postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc, Target: "flat", Race: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("flat + race: status %d, want 400: %s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "bad_request" {
		t.Fatalf("flat + race: code %q, want bad_request", d.Code)
	}

	_, raw = getBody(t, ts.URL+"/metrics")
	body := string(raw)
	for _, want := range []string{
		"riscd_race_runs_total 2\n",
		"riscd_races_found_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRunRaceOneCore checks that a race run without cores, which rides the
// shared-memory machine on one core, reports no smp object and moves the
// race counters but not the multi-core ones.
func TestRunRaceOneCore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: parSrc, Race: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if strings.Contains(string(raw), `"smp"`) {
		t.Errorf("one-core race run reports an smp object: %s", raw)
	}
	_, raw = getBody(t, ts.URL+"/metrics")
	text := string(raw)
	for name, want := range map[string]float64{
		"riscd_race_runs_total":             1,
		"riscd_smp_runs_total":              0,
		"riscd_smp_cores_total":             0,
		"riscd_smp_contention_cycles_total": 0,
	} {
		if got := metricValue(t, text, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// TestLintSMPTarget checks /v1/lint's "smp" target: the concurrency passes
// run forced on windowed code, flag the racy program, and stay quiet on the
// lock-disciplined one.
func TestLintSMPTarget(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, raw := postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: racySrc, Target: "smp"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint smp: status %d: %s", resp.StatusCode, raw)
	}
	var out LintResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Warnings == 0 {
		t.Fatalf("racy program linted clean under target smp: %s", raw)
	}
	found := false
	for _, d := range out.Diagnostics {
		if d.Pass == "smp-race" {
			found = true
		}
	}
	if !found {
		t.Errorf("no smp-race diagnostic: %s", raw)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: parSrc, Target: "smp"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint smp clean: status %d: %s", resp.StatusCode, raw)
	}
	out = LintResponse{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Warnings != 0 || out.Errors != 0 {
		t.Fatalf("lock-disciplined program linted dirty under target smp: %s", raw)
	}
}
