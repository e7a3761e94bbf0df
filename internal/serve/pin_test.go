package serve

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// pinSrc spawns two workers that each compute a Fibonacci number deep enough
// to overflow the register windows, and folds the results under a lock.
const pinSrc = `
int total;
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
void worker(int k) {
    int v;
    v = fib(k + 9);
    lock(0);
    total += v;
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

// TestRunBodiesPinned pins the exact bytes of a /v1/run response and of the
// /v1/run/stream "result" event for one fixed program on the windowed
// machine, on the pipelined model (the pipeline object) and on two cores
// (the smp object). The run comes first on a fresh server, so its body says
// cached false; the stream follows and hits the cache.
func TestRunBodiesPinned(t *testing.T) {
	cases := []struct {
		name   string
		req    RunRequest
		run    string
		result string
	}{
		{"windowed", RunRequest{Source: pinSrc}, pinWindowedRun, pinWindowedResult},
		{"pipelined", RunRequest{Source: pinSrc, Target: "pipelined"}, pinPipelinedRun, pinPipelinedResult},
		{"cores2", RunRequest{Source: pinSrc, Cores: 2}, pinSMPRun, pinSMPResult},
	}
	for _, c := range cases {
		_, ts := newTestServer(t, Config{})
		resp, raw := postJSON(t, ts.URL+"/v1/run", c.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", c.name, resp.StatusCode, raw)
		}
		if got := string(raw); got != c.run {
			t.Errorf("%s: /v1/run body\n got: %s\nwant: %s", c.name, got, c.run)
		}

		sresp := postStream(t, context.Background(), ts.URL, c.req)
		if sresp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(sresp.Body)
			sresp.Body.Close()
			t.Fatalf("%s: stream status %d\n%s", c.name, sresp.StatusCode, raw)
		}
		events := readAllSSE(t, sresp.Body)
		sresp.Body.Close()
		last := events[len(events)-1]
		if last.name != "result" {
			t.Fatalf("%s: terminal event %q, want result", c.name, last.name)
		}
		if got := string(last.data); got != c.result {
			t.Errorf("%s: result event\n got: %s\nwant: %s", c.name, got, c.result)
		}
	}
}

// The pinned bodies. A /v1/run body ends in the newline json.Encoder writes.
const (
	pinWindowedRun     = `{"console":"89","instructions":4556,"cycles":6060,"sim_ns":2424000,"code_bytes":472,"calls":296,"max_call_depth":12,"window_overflows":15,"window_underflows":15,"cached":false}` + "\n"
	pinWindowedResult  = `{"instructions":4556,"cycles":6060,"sim_ns":2424000,"code_bytes":472,"calls":296,"max_call_depth":12,"window_overflows":15,"window_underflows":15,"cached":true}`
	pinPipelinedRun    = `{"console":"89","instructions":4556,"cycles":6210,"sim_ns":2484000,"code_bytes":472,"calls":296,"max_call_depth":12,"window_overflows":15,"window_underflows":15,"cached":false,"pipeline":{"policy":"delayed","cycles":6210,"cpi":1.3630377524143986,"ref_cycles":6060,"load_use_stall_cycles":148,"window_stall_cycles":1200,"mem_port_stall_cycles":302,"flush_bubble_cycles":0,"forwards_ex_mem":741,"forwards_mem_wb":152,"delay_slots":1172,"delay_slots_filled":143,"fill_rate_pct":12.20136518771331}}` + "\n"
	pinPipelinedResult = `{"instructions":4556,"cycles":6210,"sim_ns":2484000,"code_bytes":472,"calls":296,"max_call_depth":12,"window_overflows":15,"window_underflows":15,"cached":true,"pipeline":{"policy":"delayed","cycles":6210,"cpi":1.3630377524143986,"ref_cycles":6060,"load_use_stall_cycles":148,"window_stall_cycles":1200,"mem_port_stall_cycles":302,"flush_bubble_cycles":0,"forwards_ex_mem":741,"forwards_mem_wb":152,"delay_slots":1172,"delay_slots_filled":143,"fill_rate_pct":12.20136518771331}}`
	pinSMPRun          = `{"console":"89","instructions":4556,"cycles":3996,"sim_ns":1598400,"code_bytes":472,"calls":295,"max_call_depth":12,"window_overflows":13,"window_underflows":13,"cached":false,"smp":{"cores":2,"elapsed_cycles":3996,"contention_cycles":517,"rounds":45,"spawns":1,"spawn_fails":1,"per_core":[{"instructions":2843,"cycles":3756,"contention_cycles":240,"data_read_bytes":960,"data_write_bytes":964,"launches":1},{"instructions":1713,"cycles":2145,"contention_cycles":277,"data_read_bytes":480,"data_write_bytes":480,"launches":1}]}}` + "\n"
	pinSMPResult       = `{"instructions":4556,"cycles":3996,"sim_ns":1598400,"code_bytes":472,"calls":295,"max_call_depth":12,"window_overflows":13,"window_underflows":13,"cached":true,"smp":{"cores":2,"elapsed_cycles":3996,"contention_cycles":517,"rounds":45,"spawns":1,"spawn_fails":1,"per_core":[{"instructions":2843,"cycles":3756,"contention_cycles":240,"data_read_bytes":960,"data_write_bytes":964,"launches":1},{"instructions":1713,"cycles":2145,"contention_cycles":277,"data_read_bytes":480,"data_write_bytes":480,"launches":1}]}}`
)

// TestMetricsPinned pins the whole /metrics exposition after a fixed request
// sequence on a fresh server: windowed runs under auto and step, a pipelined
// squash run, two-core runs with and without the race detector, a run that
// faults (422), one lint and one stream. Only the latency histogram, which
// measures wall-clock time, is masked. The stream's program runs past its
// first run batch before printing, and the hour-long sampling interval
// leaves that batch's frame the only stats event.
func TestMetricsPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCores: 4, StreamInterval: time.Hour})
	for _, c := range []struct {
		req  RunRequest
		want int
	}{
		{RunRequest{Source: pinSrc}, http.StatusOK},
		{RunRequest{Source: pinSrc, Engine: "step"}, http.StatusOK},
		{RunRequest{Source: pinSrc, Target: "pipelined", Policy: "squash"}, http.StatusOK},
		{RunRequest{Source: pinSrc, Cores: 2}, http.StatusOK},
		{RunRequest{Source: pinSrc, Cores: 2, Race: true}, http.StatusOK},
		{RunRequest{Source: "main: stl r0,(r0)#2\n ret r25,#8\n nop\n", Lang: "asm"}, http.StatusUnprocessableEntity},
	} {
		if resp, raw := postJSON(t, ts.URL+"/v1/run", c.req); resp.StatusCode != c.want {
			t.Fatalf("%+v: status %d, want %d\n%s", c.req, resp.StatusCode, c.want, raw)
		}
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: fibSrc}); resp.StatusCode != http.StatusOK {
		t.Fatalf("lint: status %d\n%s", resp.StatusCode, raw)
	}
	sresp := postStream(t, context.Background(), ts.URL, RunRequest{Source: pinSrc})
	events := readAllSSE(t, sresp.Body)
	sresp.Body.Close()
	if last := events[len(events)-1]; last.name != "result" {
		t.Fatalf("stream: terminal event %q, want result", last.name)
	}

	_, raw := getBody(t, ts.URL+"/metrics")
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if !strings.HasPrefix(line, "riscd_request_duration_seconds") {
			b.WriteString(line)
		}
	}
	const golden = "testdata/metrics.golden"
	want, err := os.ReadFile(golden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; rerun to compare against it", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("/metrics differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
