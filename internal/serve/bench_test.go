package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchPost issues one /v1/run and fails the benchmark on a non-200.
func benchPost(b *testing.B, client *http.Client, url string, req RunRequest) {
	b.Helper()
	raw, _ := json.Marshal(req)
	resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

const benchSrc = `int main() { putint(6 * 7); return 0; }`

// BenchmarkServeRunCold measures the no-cache path: every request carries a
// distinct source, so each one pays compile + assemble + run.
func BenchmarkServeRunCold(b *testing.B) {
	s := New(Config{CacheEntries: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := fmt.Sprintf("int main() { putint(%d); return 0; }", i)
		benchPost(b, ts.Client(), ts.URL, RunRequest{Source: src})
	}
}

// BenchmarkServeRunCached measures the steady state the cache exists for:
// identical source on every request, so only the first compiles.
func BenchmarkServeRunCached(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	benchPost(b, ts.Client(), ts.URL, RunRequest{Source: benchSrc}) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.Client(), ts.URL, RunRequest{Source: benchSrc})
	}
}

// BenchmarkServeRunParallel measures cached req/s with concurrent clients
// saturating the worker pool (RunParallel drives GOMAXPROCS client procs).
func BenchmarkServeRunParallel(b *testing.B) {
	s := New(Config{QueueDepth: 1 << 16}) // benchmark throughput, not shedding
	ts := httptest.NewServer(s)
	defer ts.Close()
	benchPost(b, ts.Client(), ts.URL, RunRequest{Source: benchSrc})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, ts.Client(), ts.URL, RunRequest{Source: benchSrc})
		}
	})
}
