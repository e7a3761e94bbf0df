// Package serve is riscd's simulation-as-a-service layer: an HTTP/JSON API
// over the risc1 facade with the properties a long-lived, heavily-loaded
// process needs and a library call does not — admission control with load
// shedding, server-enforced cycle and wall-clock budgets on every run, a
// compiled-image cache so repeat traffic skips the compiler, and Prometheus
// metrics to prove all of it.
//
// The design follows the paper's thesis applied to serving: spend the budget
// on the common fast path. The common case for benchmark traffic is
// compile-once, run-many — so the unit of caching is the compiled Image,
// keyed by a content hash of (lang, target, source), and a cache hit turns a
// request into pure simulation. Everything else is bounded: a request beyond
// pool+queue capacity is refused immediately with 429 instead of growing a
// goroutine pile, and a guest program that loops forever dies at the cycle
// budget or the deadline, whichever lands first.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"risc1"
	"risc1/internal/prog"
)

// Defaults applied by Config.withDefaults.
const (
	// DefaultTimeout bounds one run's wall clock. Cached fib completes in
	// ~10ms; ten seconds is two orders of magnitude of headroom.
	DefaultTimeout = 10 * time.Second
	// DefaultMaxCores caps the shared-memory machine size a request may ask
	// for. Eight covers the whole E12 scalability sweep while keeping one
	// request's CPU appetite bounded.
	DefaultMaxCores = 8
	// DefaultCacheEntries sizes the compiled-image LRU. A full benchmark
	// suite across all three targets is ~40 images; 256 leaves room for
	// many distinct user programs before anything hot is evicted.
	DefaultCacheEntries = 256
	// DefaultStreamInterval is how often /v1/run/stream samples a stats
	// frame. 100ms is fast enough to feel live and slow enough that frame
	// traffic never competes with console output.
	DefaultStreamInterval = 100 * time.Millisecond
	// maxBodyBytes caps a request body; the largest suite benchmark is
	// ~4 KiB of source, so 1 MiB is generous.
	maxBodyBytes = 1 << 20
)

// Experimenter renders one experiment table by ID. *risc1.Lab implements it
// with an in-process singleflight run cache; the interface is the
// horizontal-scale-out seam — multiple riscd processes behind a load
// balancer can inject an implementation that shares one lab (or partitions
// experiment IDs across processes) instead of each duplicating every
// simulation.
type Experimenter interface {
	Experiment(id string) (string, error)
}

// Config sizes a Server.
type Config struct {
	// Workers is the number of simulations run concurrently
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond the Workers already running (default 4×Workers; negative
	// means no queue — admission is the worker pool alone).
	QueueDepth int
	// MaxCycles is the per-run cycle budget ceiling and default
	// (default risc1.DefaultMaxCycles). Requests may lower it, never
	// raise it.
	MaxCycles uint64
	// Timeout is the per-run wall-clock deadline ceiling and default
	// (default DefaultTimeout). Requests may lower it, never raise it.
	Timeout time.Duration
	// CacheEntries sizes the compiled-image LRU (default
	// DefaultCacheEntries; negative disables caching).
	CacheEntries int
	// MaxCores caps RunRequest.Cores (default DefaultMaxCores; never above
	// risc1.MaxCores). Negative disables multi-core runs entirely.
	MaxCores int
	// StreamInterval is the sampling interval for /v1/run/stream stats
	// frames (default DefaultStreamInterval). Server-controlled so a
	// client cannot ask for a frame per instruction.
	StreamInterval time.Duration
	// Lab serves GET /v1/experiments/{id} (default a fresh risc1.NewLab()).
	// Injectable so scaled-out deployments can share or partition one lab
	// across processes instead of duplicating every simulation per process.
	Lab Experimenter
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = risc1.DefaultMaxCycles
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = DefaultStreamInterval
	}
	if c.Lab == nil {
		c.Lab = risc1.NewLab()
	}
	if c.MaxCores == 0 {
		c.MaxCores = DefaultMaxCores
	}
	if c.MaxCores < 0 {
		c.MaxCores = 1
	}
	if c.MaxCores > risc1.MaxCores {
		c.MaxCores = risc1.MaxCores
	}
	return c
}

// Server is the riscd HTTP handler. Create one with New; it is safe for
// concurrent use and implements http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// Admission control. slots holds Workers+QueueDepth tickets: a request
	// that cannot take one immediately is shed with 429. active holds
	// Workers tickets: an admitted request waits here (the "queue") until
	// a worker slot frees.
	slots  chan struct{}
	active chan struct{}
	// queued counts requests that hold a slot ticket but are still waiting
	// for a worker. It is the authoritative queue depth: deriving it from
	// len(slots)-len(active) races, because a request takes the two tickets
	// in separate steps.
	queued atomic.Int64
	// streams counts /v1/run/stream connections currently open.
	streams atomic.Int64

	cache    *imageCache
	lab      Experimenter
	met      *metrics
	draining atomic.Bool

	// baseCtx parents every simulation; cancelRuns aborts them all, which
	// is how graceful shutdown drains a pool full of long guest programs.
	baseCtx    context.Context
	cancelRuns context.CancelFunc
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		slots:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		active: make(chan struct{}, cfg.Workers),
		cache:  newImageCache(cfg.CacheEntries),
		lab:    cfg.Lab,
		met:    newMetrics(),
	}
	s.baseCtx, s.cancelRuns = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/run/stream", s.handleRunStream)
	s.mux.HandleFunc("POST /v1/disasm", s.handleDisasm)
	s.mux.HandleFunc("POST /v1/lint", s.handleLint)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Drain puts the server into shutdown mode: /healthz starts reporting 503
// (so load balancers stop routing here) and new work is refused, while
// requests already admitted keep running.
func (s *Server) Drain() { s.draining.Store(true) }

// CancelRuns aborts every in-flight simulation via context cancellation.
// Call it after the HTTP server's own drain grace expires.
func (s *Server) CancelRuns() { s.cancelRuns() }

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush passes streaming support through the wrapper; without it the SSE
// endpoint would see a non-Flusher and refuse to stream.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection's write
// deadline through the wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// endpointLabel collapses parameterized paths so metrics cardinality stays
// bounded no matter what clients request.
func endpointLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/experiments/"):
		return "/v1/experiments/{id}"
	case path == "/v1/run", path == "/v1/run/stream", path == "/v1/disasm",
		path == "/v1/lint", path == "/v1/benchmarks", path == "/healthz",
		path == "/metrics":
		return path
	}
	return "other"
}

// ServeHTTP dispatches with per-request metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	s.met.observe(endpointLabel(r.URL.Path), rec.status, time.Since(start))
}

// admit takes an admission ticket and then a worker slot, returning a
// release func. A nil release means the response has already been written:
// 429 when pool+queue are full, 503 when draining, or the client gave up
// while queued.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) func() {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is draining")
		return nil
	}
	select {
	case s.slots <- struct{}{}:
	default:
		// Full pool and full queue: shed now, with an adaptive hint about
		// when capacity is likely to exist again.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("worker pool (%d) and queue (%d) are full",
				s.cfg.Workers, s.cfg.QueueDepth))
		return nil
	}
	// Fast path: a worker is free, no queueing happened.
	select {
	case s.active <- struct{}{}:
		return func() { <-s.active; <-s.slots }
	default:
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.active <- struct{}{}:
		return func() { <-s.active; <-s.slots }
	case <-r.Context().Done():
		<-s.slots
		writeError(w, http.StatusServiceUnavailable, "canceled", "client gave up while queued")
		return nil
	case <-s.baseCtx.Done():
		<-s.slots
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is draining")
		return nil
	}
}

// retryAfterSeconds estimates when a shed client should come back: the work
// ahead of it (the current queue plus itself) spread across the worker pool,
// each unit taking the recent mean run latency. The estimate is floored at
// one second and capped at the server timeout + 1 — the static hint this
// replaces — so a backlog of slow runs never invites a retry sooner than the
// queue could possibly drain, and a cold histogram (no runs observed yet)
// falls back to the cap.
func (s *Server) retryAfterSeconds() int {
	ceiling := int(s.cfg.Timeout.Seconds()) + 1
	mean := s.met.recentRunSeconds()
	if mean <= 0 {
		return ceiling
	}
	waves := float64(s.queued.Load()+1) / float64(s.cfg.Workers)
	est := int(math.Ceil(waves * mean))
	if est < 1 {
		est = 1
	}
	if est > ceiling {
		est = ceiling
	}
	return est
}

// decode reads a JSON body with the size cap applied.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return fmt.Errorf("body exceeds %d bytes", maxErr.Limit)
		}
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// image returns the compiled image for a request, consulting the LRU first.
// The bool reports a cache hit.
func (s *Server) image(lang string, target risc1.Target, source string) (*risc1.Image, bool, error) {
	k := imageKey(lang, target, source)
	if img, ok := s.cache.get(k); ok {
		return img, true, nil
	}
	var img *risc1.Image
	var err error
	if lang == "asm" {
		img, err = risc1.AssembleToImage(source, target)
	} else {
		img, err = risc1.CompileToImage(source, target)
	}
	if err != nil {
		return nil, false, err
	}
	s.cache.add(k, img)
	return img, false, nil
}

// runCtx builds the context one simulation runs under: the request context
// bounded by the effective deadline, and additionally canceled when the
// server aborts in-flight runs at shutdown.
func (s *Server) runCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.Timeout
	if req := time.Duration(timeoutMS) * time.Millisecond; timeoutMS > 0 && req < timeout {
		timeout = req
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// budget clamps a requested cycle budget to the server ceiling.
func (s *Server) budget(requested uint64) uint64 {
	if requested > 0 && requested < s.cfg.MaxCycles {
		return requested
	}
	return s.cfg.MaxCycles
}

// runParams is a validated RunRequest, shared by the buffered and streaming
// run endpoints so the two cannot drift on what they accept.
type runParams struct {
	req    RunRequest
	target risc1.Target
	lang   string
	engine risc1.Engine
	policy risc1.Policy
}

// parseRun decodes and validates a run request. On failure it has already
// written the 400 and returns false.
func (s *Server) parseRun(w http.ResponseWriter, r *http.Request) (runParams, bool) {
	var p runParams
	if err := decode(w, r, &p.req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return p, false
	}
	req := &p.req
	if strings.TrimSpace(req.Source) == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "source is required")
		return p, false
	}
	var err error
	if p.target, err = risc1.ParseTarget(req.Target); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return p, false
	}
	if p.lang, err = parseLang(req.Lang); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return p, false
	}
	if p.engine, err = risc1.ParseEngine(req.Engine); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return p, false
	}
	if p.policy, err = risc1.ParsePolicy(req.Policy); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return p, false
	}
	if req.Cores < 0 || req.Cores > s.cfg.MaxCores {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("cores %d: %v (server ceiling %d)", req.Cores, risc1.ErrBadCores, s.cfg.MaxCores))
		return p, false
	}
	if req.Cores > 1 && p.target != risc1.RISCWindowed {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("cores %d on target %q: %v", req.Cores, req.Target, risc1.ErrWindowedOnly))
		return p, false
	}
	if req.Race && p.target != risc1.RISCWindowed {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("race detection on target %q: %v", req.Target, risc1.ErrWindowedOnly))
		return p, false
	}
	return p, true
}

// runOptions builds the facade options for a validated request.
func (s *Server) runOptions(p runParams) risc1.RunOptions {
	return risc1.RunOptions{
		MaxCycles: s.budget(p.req.MaxCycles), Engine: p.engine, Policy: p.policy,
		Cores: p.req.Cores, Race: p.req.Race,
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	p, ok := s.parseRun(w, r)
	if !ok {
		return
	}
	req := p.req
	target, lang, engine := p.target, p.lang, p.engine

	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	img, hit, err := s.image(lang, target, req.Source)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, compileErrorBody(err))
		return
	}

	ctx, cancel := s.runCtx(r, req.TimeoutMS)
	defer cancel()
	info, err := risc1.RunImage(ctx, img, s.runOptions(p))
	s.met.addRun(engine.String())
	if err != nil {
		status, body := runErrorStatus(err)
		writeJSON(w, status, body)
		return
	}
	s.met.addReport(info, p.req.Race)
	writeJSON(w, http.StatusOK, RunResponse{Console: info.Console, StreamResult: runResult(info, hit)})
}

func (s *Server) handleDisasm(w http.ResponseWriter, r *http.Request) {
	var req DisasmRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "source is required")
		return
	}
	target, err := risc1.ParseTarget(req.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	lang, err := parseLang(req.Lang)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	img, hit, err := s.image(lang, target, req.Source)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, compileErrorBody(err))
		return
	}
	writeJSON(w, http.StatusOK, DisasmResponse{Listing: img.Disassemble(), Cached: hit})
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var req LintRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "source is required")
		return
	}
	// "smp" is a lint-only target: the windowed convention with the
	// concurrency passes forced on.
	var lintOpts risc1.LintOptions
	targetName := req.Target
	if targetName == "smp" {
		targetName, lintOpts.SMP = "windowed", true
	}
	target, err := risc1.ParseTarget(targetName)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	lang, err := parseLang(req.Lang)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	// The analyzer shares the run path's image cache: linting a program you
	// are about to run (or vice versa) compiles it exactly once.
	img, hit, err := s.image(lang, target, req.Source)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, compileErrorBody(err))
		return
	}
	diags := risc1.LintImage(img, lintOpts)
	resp := LintResponse{Diagnostics: diags, Cached: hit}
	if resp.Diagnostics == nil {
		resp.Diagnostics = []risc1.Diagnostic{} // JSON: [] rather than null
	}
	for _, d := range diags {
		switch d.Severity {
		case risc1.SevError:
			resp.Errors++
		case risc1.SevWarning:
			resp.Warnings++
		default:
			resp.Infos++
		}
	}
	s.met.addLintFindings(diags)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var out []BenchmarkInfo
	for _, b := range prog.All() {
		out = append(out, BenchmarkInfo{
			Name: b.Name, EDN: b.EDN, Desc: b.Desc, CallHeavy: b.CallHeavy,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	known := false
	for _, k := range risc1.ExperimentIDs() {
		if k == id {
			known = true
			break
		}
	}
	if !known {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown experiment %q (want %s)", id,
				strings.Join(risc1.ExperimentIDs(), ", ")))
		return
	}

	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	// The lab deduplicates runs across experiments and across requests
	// (singleflight), so repeated experiment traffic is nearly free after
	// the first rendering.
	table, err := s.lab.Experiment(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ExperimentResponse{ID: id, Table: table})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries := s.cache.stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.met.render(gauges{
		queueDepth:    int(s.queued.Load()),
		inflight:      len(s.active),
		streamsActive: int(s.streams.Load()),
		cacheHits:     hits,
		cacheMisses:   misses,
		cacheEntries:  entries,
	}))
}
