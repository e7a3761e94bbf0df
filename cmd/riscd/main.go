// Riscd serves the risc1 simulators over HTTP/JSON: POST /v1/run compiles
// (or assembles) and executes a program on any of the three machines under
// server-enforced cycle and wall-clock budgets, POST /v1/run/stream does the
// same but emits Server-Sent Events live (console chunks, sampled stats
// frames, one terminal result), POST /v1/disasm returns the encoded listing,
// GET /v1/benchmarks lists the suite, GET /v1/experiments/{id} renders a
// paper table, and GET /metrics exposes Prometheus counters. Requests beyond
// pool+queue capacity are shed with 429 + an adaptive Retry-After.
//
// Usage:
//
//	riscd [-addr :8049] [-workers N] [-queue N] [-max-cycles N]
//	      [-max-cores N] [-timeout D] [-cache N] [-stream-interval D]
//	      [-drain D]
//
// On SIGINT/SIGTERM the server drains: /healthz flips to 503, new work is
// refused, in-flight runs get the drain grace to finish and are then
// aborted via context cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"risc1"
	"risc1/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8049", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admitted requests waiting beyond the pool (0 = 4x workers, negative = none)")
	maxCycles := flag.Uint64("max-cycles", risc1.DefaultMaxCycles, "per-run cycle budget ceiling")
	maxCores := flag.Int("max-cores", serve.DefaultMaxCores, "shared-memory core ceiling per run (negative disables multi-core)")
	timeout := flag.Duration("timeout", serve.DefaultTimeout, "per-run wall-clock deadline ceiling")
	cache := flag.Int("cache", serve.DefaultCacheEntries, "compiled-image cache entries (negative disables)")
	streamInterval := flag.Duration("stream-interval", serve.DefaultStreamInterval, "stats-frame sampling interval on /v1/run/stream")
	drain := flag.Duration("drain", 5*time.Second, "shutdown grace before in-flight runs are canceled")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: riscd [-addr A] [-workers N] [-queue N] [-max-cycles N] [-max-cores N] [-timeout D] [-cache N] [-stream-interval D] [-drain D]")
		os.Exit(2)
	}

	s := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxCycles:      *maxCycles,
		MaxCores:       *maxCores,
		Timeout:        *timeout,
		CacheEntries:   *cache,
		StreamInterval: *streamInterval,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("riscd: %v", err)
	}
	log.Printf("riscd: listening on %s", ln.Addr())

	srv := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("riscd: %v", err)
	case got := <-sig:
		log.Printf("riscd: %v, draining (grace %v)", got, *drain)
	}

	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && errors.Is(err, context.DeadlineExceeded) {
		// Runs outlived the grace: abort them via context cancellation and
		// give the handlers a moment to write their 503s.
		log.Printf("riscd: drain grace expired, canceling in-flight runs")
		s.CancelRuns()
		ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		if err := srv.Shutdown(ctx2); err != nil {
			srv.Close()
		}
	}
	s.CancelRuns()
	log.Printf("riscd: shut down cleanly")
}
