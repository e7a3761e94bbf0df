package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// nextSSE reads one event off the wire, blocking until the server flushes
// it — which is what lets tests observe liveness, not just final content.
func nextSSE(br *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && ev.name != "":
			return ev, nil
		}
	}
}

// readAllSSE drains a stream to EOF.
func readAllSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	br := bufio.NewReader(r)
	var out []sseEvent
	for {
		ev, err := nextSSE(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream read: %v (after %d events)", err, len(out))
		}
		out = append(out, ev)
	}
}

// postStream opens a /v1/run/stream response without consuming the body.
func postStream(t *testing.T, ctx context.Context, url string, req RunRequest) *http.Response {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		url+"/v1/run/stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestStreamRun pins the happy-path event protocol: start first (with the
// cache flag and the server's sampling interval), console chunks that
// reassemble the full output, one terminal result event, nothing after it —
// and a cache hit flagged on the repeat request.
func TestStreamRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for round, wantCached := range []bool{false, true} {
		resp := postStream(t, context.Background(), ts.URL, RunRequest{Source: fibSrc})
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("round %d: status %d\n%s", round, resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type = %q", ct)
		}
		events := readAllSSE(t, resp.Body)
		resp.Body.Close()
		if len(events) < 2 {
			t.Fatalf("round %d: only %d events", round, len(events))
		}
		if events[0].name != "start" {
			t.Fatalf("round %d: first event %q, want start", round, events[0].name)
		}
		var start StreamStart
		if err := json.Unmarshal(events[0].data, &start); err != nil {
			t.Fatal(err)
		}
		if start.Cached != wantCached {
			t.Errorf("round %d: cached = %v, want %v", round, start.Cached, wantCached)
		}
		if start.IntervalMS != DefaultStreamInterval.Milliseconds() {
			t.Errorf("round %d: interval %dms, want %v", round, start.IntervalMS, DefaultStreamInterval)
		}
		last := events[len(events)-1]
		if last.name != "result" {
			t.Fatalf("round %d: terminal event %q, want result", round, last.name)
		}
		var res StreamResult
		if err := json.Unmarshal(last.data, &res); err != nil {
			t.Fatal(err)
		}
		if res.Instructions == 0 || res.Cycles == 0 {
			t.Errorf("round %d: empty result stats: %+v", round, res)
		}
		var console strings.Builder
		for _, ev := range events[1 : len(events)-1] {
			switch ev.name {
			case "console":
				var c StreamConsole
				if err := json.Unmarshal(ev.data, &c); err != nil {
					t.Fatal(err)
				}
				console.WriteString(c.Chunk)
			case "stats":
			default:
				t.Errorf("round %d: unexpected mid-stream event %q", round, ev.name)
			}
		}
		if console.String() != "55" {
			t.Errorf("round %d: streamed console %q, want 55", round, console.String())
		}
	}

	_, raw := getBody(t, ts.URL+"/metrics")
	text := string(raw)
	for _, want := range []string{
		`riscd_stream_events_total{type="start"} 2`,
		`riscd_stream_events_total{type="result"} 2`,
		`riscd_stream_events_total{type="console"} `,
		"riscd_stream_active 0",
		`riscd_requests_total{endpoint="/v1/run/stream",status="200"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// spinSrc prints early, then grinds long enough that a watcher provably
// overlaps the run: first output must arrive while the simulation is still
// in flight.
const spinSrc = `
int main() {
    int i;
    putint(1);
    i = 0;
    while (i < 400000) { i = i + 1; }
    putint(2);
    return 0;
}`

// printLoopAsm prints one value, then loops forever: output exists while
// the run provably cannot have completed.
const printLoopAsm = "main: add r0,#6,r10\n stl r10,(r0)#-252\n loop: jmpr alw,loop\n nop\n"

// TestStreamLiveBeforeCompletion is the acceptance criterion for liveness:
// the first console event is delivered while the run still holds a worker
// slot. The guest prints then spins forever, so any console event on the
// wire is by construction mid-run; the inflight/stream gauges confirm it,
// stats frames keep sampling the grind, and hanging up ends the run.
func TestStreamLiveBeforeCompletion(t *testing.T) {
	_, ts := newTestServer(t, Config{
		StreamInterval: 5 * time.Millisecond, Timeout: 60 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := postStream(t, ctx, ts.URL, RunRequest{Source: printLoopAsm, Lang: "asm"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var sawConsole bool
	var statsFrames int
	for !sawConsole || statsFrames == 0 {
		ev, err := nextSSE(br)
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		switch ev.name {
		case "console":
			if sawConsole {
				break
			}
			sawConsole = true
			var c StreamConsole
			if err := json.Unmarshal(ev.data, &c); err != nil {
				t.Fatal(err)
			}
			if c.Chunk != "6" {
				t.Errorf("chunk %q, want 6", c.Chunk)
			}
			// First output is on the wire; the infinite run is still going.
			_, raw := getBody(t, ts.URL+"/metrics")
			text := string(raw)
			if v := metricValue(t, text, "riscd_inflight_runs"); v < 1 {
				t.Errorf("inflight = %v with the run mid-flight, want >= 1", v)
			}
			if v := metricValue(t, text, "riscd_stream_active"); v != 1 {
				t.Errorf("riscd_stream_active = %v mid-stream, want 1", v)
			}
		case "stats":
			statsFrames++
			var f StreamStats
			if err := json.Unmarshal(ev.data, &f); err != nil {
				t.Fatal(err)
			}
			if f.Instructions == 0 && f.Cycles == 0 {
				t.Error("empty stats frame")
			}
		case "result", "error":
			t.Fatalf("infinite run terminated itself: %s %s", ev.name, ev.data)
		}
	}
}

// TestStreamSamplingInterval checks the server controls the frame rate: the
// number of stats frames is bounded by elapsed/interval (plus slack), no
// matter how many batch boundaries the run crosses.
func TestStreamSamplingInterval(t *testing.T) {
	const interval = 20 * time.Millisecond
	_, ts := newTestServer(t, Config{StreamInterval: interval})
	begin := time.Now()
	resp := postStream(t, context.Background(), ts.URL, RunRequest{Source: spinSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	events := readAllSSE(t, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(begin)

	frames := 0
	for _, ev := range events {
		if ev.name == "stats" {
			frames++
		}
	}
	// The run crosses hundreds of batch boundaries; only the sampling
	// interval keeps the frame count near elapsed/interval.
	if maxFrames := int(elapsed/interval) + 2; frames > maxFrames {
		t.Errorf("%d stats frames in %v at a %v interval (max %d): sampling not honored",
			frames, elapsed, interval, maxFrames)
	}
}

// TestStreamTruncationFlag runs a console-flooding guest over the stream:
// the wire carries more than the server's 1 MiB retention cap (live
// watchers see everything), while the terminal event still flags that the
// buffered copy was truncated.
func TestStreamTruncationFlag(t *testing.T) {
	src := `
int main() {
    int i;
    for (i = 0; i < 300000; i = i + 1) putint(1234567);
    return 0;
}`
	_, ts := newTestServer(t, Config{Timeout: 60 * time.Second, MaxCycles: 400_000_000})
	resp := postStream(t, context.Background(), ts.URL, RunRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	events := readAllSSE(t, resp.Body)
	resp.Body.Close()

	var streamed int
	for _, ev := range events[1 : len(events)-1] {
		if ev.name == "console" {
			var c StreamConsole
			if err := json.Unmarshal(ev.data, &c); err != nil {
				t.Fatal(err)
			}
			streamed += len(c.Chunk)
		}
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("terminal event %q: %s", last.name, last.data)
	}
	var res StreamResult
	if err := json.Unmarshal(last.data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.ConsoleTruncated {
		t.Error("console_truncated = false for a flooding guest")
	}
	if streamed <= 1<<20 {
		t.Errorf("stream carried %d bytes, want more than the 1 MiB buffered cap", streamed)
	}
}

// TestStreamDisconnectCancelsRun is the watcher-goes-away contract: closing
// the client connection mid-run cancels the simulation, frees the worker
// slot, and leaks no goroutines. Meaningful under -race.
func TestStreamDisconnectCancelsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{Workers: 1, Timeout: 60 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	resp := postStream(t, ctx, ts.URL, RunRequest{Source: loopAsm, Lang: "asm"})
	br := bufio.NewReader(resp.Body)
	if ev, err := nextSSE(br); err != nil || ev.name != "start" {
		t.Fatalf("first event %q, err %v", ev.name, err)
	}
	// The infinite loop now owns the only worker. Hang up.
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, raw := getBody(t, ts.URL+"/metrics")
		text := string(raw)
		if metricValue(t, text, "riscd_inflight_runs") == 0 &&
			metricValue(t, text, "riscd_stream_active") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnect did not cancel the streamed run")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The freed worker must be usable immediately.
	r2, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("run after disconnect: status %d\n%s", r2.StatusCode, raw)
	}

	ts.Close()
	s.CancelRuns()
	deadline = time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStreamBadInput pins that failures before the stream starts are still
// ordinary JSON errors, not half-open event streams.
func TestStreamBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/run/stream", RunRequest{Source: "int main( {"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("compile error: status %d\n%s", resp.StatusCode, raw)
	}
	if d := decodeError(t, raw); d.Code != "compile_error" {
		t.Errorf("code = %q, want compile_error", d.Code)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/run/stream", RunRequest{Source: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty source: status %d\n%s", resp.StatusCode, raw)
	}
}

// TestStreamErrorEvent pins the in-stream failure contract: a run that dies
// after the stream opened ends with a typed "error" event.
func TestStreamErrorEvent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postStream(t, context.Background(), ts.URL,
		RunRequest{Source: loopAsm, Lang: "asm", MaxCycles: 1000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	events := readAllSSE(t, resp.Body)
	resp.Body.Close()
	last := events[len(events)-1]
	if last.name != "error" {
		t.Fatalf("terminal event %q, want error: %s", last.name, last.data)
	}
	var d ErrorDetail
	if err := json.Unmarshal(last.data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Code != "cycle_limit" || d.Cycle != 1000 {
		t.Errorf("error detail %+v, want cycle_limit at cycle 1000", d)
	}
}

// TestQueueDepthGauge pins the explicit queued counter: with the single
// worker pinned, admitted-but-waiting requests are visible in
// riscd_queue_depth and the gauge returns to zero when they finish. The old
// len(slots)-len(active) derivation raced both ticket takes.
func TestQueueDepthGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Timeout: 30 * time.Second})

	// Pin the worker.
	pinned := make(chan struct{})
	go func() {
		defer close(pinned)
		postJSON(t, ts.URL+"/v1/run", RunRequest{Source: loopAsm, Lang: "asm", TimeoutMS: 1000})
	}()
	waitFor := func(metric string, want float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, raw := getBody(t, ts.URL+"/metrics")
			if metricValue(t, string(raw), metric) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %v", metric, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("riscd_inflight_runs", 1)

	// Two more requests queue behind it.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc})
		}()
	}
	waitFor("riscd_queue_depth", 2)

	<-pinned
	<-done
	<-done
	waitFor("riscd_queue_depth", 0)
	waitFor("riscd_inflight_runs", 0)
}

// TestRetryAfterAdaptive unit-tests the 429 hint arithmetic directly.
func TestRetryAfterAdaptive(t *testing.T) {
	s := New(Config{Workers: 2, Timeout: 10 * time.Second})
	ceiling := 11 // timeout + 1

	// Cold histogram: fall back to the static ceiling.
	if got := s.retryAfterSeconds(); got != ceiling {
		t.Errorf("cold: %d, want %d", got, ceiling)
	}

	set := func(ewma float64, queued int64) {
		s.met.mu.Lock()
		s.met.runEWMA = ewma
		s.met.mu.Unlock()
		s.queued.Store(queued)
	}

	// 3 queued + this one = 2 waves of 2 workers at 2s each.
	set(2.0, 3)
	if got := s.retryAfterSeconds(); got != 4 {
		t.Errorf("2s mean, 3 queued: %d, want 4", got)
	}
	// Fast runs, empty queue: floor at one second.
	set(0.001, 0)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("fast runs: %d, want floor 1", got)
	}
	// Slow runs, deep queue: capped at the static ceiling.
	set(30.0, 8)
	if got := s.retryAfterSeconds(); got != ceiling {
		t.Errorf("slow backlog: %d, want cap %d", got, ceiling)
	}
}

// TestRetryAfterOnWire checks the adaptive hint reaches the 429 header and
// respects the bounds end to end.
func TestRetryAfterOnWire(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, Timeout: 5 * time.Second})

	// Warm the run-latency EWMA with a fast run.
	if resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc}); resp.StatusCode != 200 {
		t.Fatalf("warm run: %d\n%s", resp.StatusCode, raw)
	}

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		postJSON(t, ts.URL+"/v1/run", RunRequest{Source: loopAsm, Lang: "asm", TimeoutMS: 1500})
	}()
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, raw := getBody(t, ts.URL+"/metrics")
		if metricValue(t, string(raw), "riscd_inflight_runs") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("loop never occupied the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, _ := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: fibSrc})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var ra int
	if _, err := fmt.Sscan(resp.Header.Get("Retry-After"), &ra); err != nil {
		t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	// Mean run latency is ~ms and nothing is queued: the adaptive hint must
	// be near the floor, not the old static timeout+1.
	if ra < 1 || ra > 2 {
		t.Errorf("Retry-After = %d, want 1-2 (adaptive, not static %d)", ra, 6)
	}
	<-blocked
}

// chattyAsm prints forever, one console chunk every three instructions.
const chattyAsm = "main: add r0,#6,r10\n loop: stl r10,(r0)#-252\n jmpr alw,loop\n nop\n"

// TestStreamStalledReaderReleasesWorker is the slow-reader contract: a
// client that reads the headers of a chatty stream and then stops reading
// fills the socket and blocks the handler in Write. The write deadline
// (the run's deadline plus streamWriteGrace) must fail that Write, so the
// only worker is free for the next request within the run timeout plus the
// grace, and nothing leaks. Meaningful under -race.
func TestStreamStalledReaderReleasesWorker(t *testing.T) {
	const timeout = time.Second
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 1, Timeout: timeout})
	ts := httptest.NewUnstartedServer(s)
	ts.Listener = smallSendBuffers{ts.Listener}
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	body := fmt.Sprintf(`{"source":%q,"lang":"asm"}`, chattyAsm)
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/run/stream HTTP/1.1\r\nHost: riscd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read nothing more: the stream backs up into the socket buffers.

	client := &http.Client{Timeout: timeout + streamWriteGrace + 2*time.Second}
	raw, _ := json.Marshal(RunRequest{Source: fibSrc})
	r2, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("run behind a stalled stream: %v after %v", err, time.Since(start))
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("run behind a stalled stream: status %d", r2.StatusCode)
	}
	if waited := time.Since(start); waited > timeout+streamWriteGrace+time.Second {
		t.Errorf("next run admitted after %v, want within %v plus the grace", waited, timeout)
	}

	conn.Close()
	client.CloseIdleConnections()
	ts.Close()
	s.CancelRuns()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// smallSendBuffers shrinks the send buffer of every accepted connection, so
// a stalled reader blocks the server's writes after a few kilobytes rather
// than after the megabytes loopback buffers grow to.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}
