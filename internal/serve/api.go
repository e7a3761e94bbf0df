package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"risc1"
	"risc1/internal/asm"
	"risc1/internal/cisc"
	"risc1/internal/core"
)

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	// Source is Cm source (default) or machine-level assembly (Lang "asm").
	Source string `json:"source"`
	// Lang selects the front end: "cm" (default) compiles, "asm" assembles.
	Lang string `json:"lang,omitempty"`
	// Target is "windowed" (default), "flat", "cisc" or "pipelined" —
	// pipelined runs windowed code on the cycle-accurate five-stage
	// pipeline model and reports its CPI/stall breakdown.
	Target string `json:"target,omitempty"`
	// MaxCycles lowers the server's per-run cycle budget. It can only
	// tighten the bound: values above the server ceiling are clamped.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// TimeoutMS lowers the server's per-run wall-clock deadline, likewise
	// clamped to the server ceiling.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Engine selects the RISC execution engine: "auto" (default, compiled
	// basic blocks) or "step" (the single-step reference interpreter).
	// CISC runs ignore it.
	Engine string `json:"engine,omitempty"`
	// Policy selects the pipeline's control-transfer policy for the
	// "pipelined" target: "delayed" (default, the paper's delayed jumps)
	// or "squash" (predict-not-taken hardware). Other targets ignore it.
	Policy string `json:"policy,omitempty"`
	// Cores runs the program on a shared-memory machine of this many RISC I
	// cores (0 or 1 = single-core). Requires the "windowed" target and must
	// not exceed the server's core ceiling; violations are 400s.
	Cores int `json:"cores,omitempty"`
	// Race runs the program under the dynamic race detector. Requires the
	// "windowed" target (the run routes through the shared-memory machine
	// even at one core); observed races come back in RunResponse.Races.
	Race bool `json:"race,omitempty"`
}

// RunResponse is the body of a successful POST /v1/run: the console output
// followed by the run's result fields, flattened into one JSON object.
type RunResponse struct {
	Console string `json:"console"`
	StreamResult
}

// StreamStart is the first event on a /v1/run/stream response, emitted as
// soon as the run is admitted and compiled — before any simulation output,
// which is what makes the stream observably live.
type StreamStart struct {
	// Cached reports the compiled image came from the server's LRU.
	Cached bool `json:"cached"`
	// IntervalMS is the server-controlled stats-frame sampling interval.
	IntervalMS int64 `json:"interval_ms"`
}

// StreamConsole carries one chunk of guest console output, forwarded as the
// guest writes it. Unlike the buffered RunResponse.Console, the stream
// carries everything — chunks past the server's 1 MiB retention cap are
// still forwarded (the terminal event's ConsoleTruncated then reports that
// the buffered copy, not the stream, was cut).
type StreamConsole struct {
	Chunk string `json:"chunk"`
}

// StreamStats is a sampled progress frame: cumulative counters at some
// batch boundary, emitted at most once per server sampling interval.
type StreamStats struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
}

// StreamResult is a run's result without its console: the terminal event of
// a successful streamed run, whose console was already delivered chunk by
// chunk, and everything in RunResponse after Console. A failed stream ends
// with an "error" event carrying an ErrorDetail instead.
type StreamResult struct {
	ConsoleTruncated bool   `json:"console_truncated,omitempty"`
	Instructions     uint64 `json:"instructions"`
	Cycles           uint64 `json:"cycles"`
	SimNS            int64  `json:"sim_ns"` // simulated time at the paper's clock
	CodeBytes        int    `json:"code_bytes"`
	Calls            uint64 `json:"calls"`
	MaxCallDepth     int    `json:"max_call_depth"`
	WindowOverflows  uint64 `json:"window_overflows,omitempty"`
	WindowUnderflows uint64 `json:"window_underflows,omitempty"`
	// Cached reports the compiled image came from the server's LRU —
	// the request skipped the compiler entirely.
	Cached bool `json:"cached"`
	// Pipeline carries the cycle-accurate model's CPI and stall breakdown.
	// Present only for the "pipelined" target.
	Pipeline *risc1.PipelineInfo `json:"pipeline,omitempty"`
	// SMP carries the shared-memory machine's breakdown — makespan,
	// contention charges, per-core stats. Present only when Cores > 1.
	SMP *risc1.SMPInfo `json:"smp,omitempty"`
	// Races lists the data races the dynamic detector observed. Present
	// only when the request set Race; an empty list on such a run means
	// the execution was race-free.
	Races []risc1.Race `json:"races,omitempty"`
}

// runResult renders a finished run's result fields; cached reports whether
// the image came from the LRU.
func runResult(info *risc1.RunInfo, cached bool) StreamResult {
	return StreamResult{
		ConsoleTruncated: info.ConsoleTruncated,
		Instructions:     info.Instructions,
		Cycles:           info.Cycles,
		SimNS:            info.Time.Nanoseconds(),
		CodeBytes:        info.CodeBytes,
		Calls:            info.Calls,
		MaxCallDepth:     info.MaxCallDepth,
		WindowOverflows:  info.WindowOverflows,
		WindowUnderflows: info.WindowUnderflows,
		Cached:           cached,
		Pipeline:         info.Pipeline,
		SMP:              info.SMP,
		Races:            info.Races,
	}
}

// LintRequest is the body of POST /v1/lint. Target additionally accepts
// "smp": the windowed convention with the concurrency passes (smp-race,
// smp-lock, smp-spawn) forced on.
type LintRequest struct {
	Source string `json:"source"`
	Lang   string `json:"lang,omitempty"`
	Target string `json:"target,omitempty"`
}

// LintResponse is the body of a successful POST /v1/lint. A program that
// compiles but trips the analyzer still gets a 200: the findings ARE the
// result. Clients gate on Errors/Warnings.
type LintResponse struct {
	Diagnostics []risc1.Diagnostic `json:"diagnostics"`
	Errors      int                `json:"errors"`
	Warnings    int                `json:"warnings"`
	Infos       int                `json:"infos"`
	Cached      bool               `json:"cached"`
}

// DisasmRequest is the body of POST /v1/disasm.
type DisasmRequest struct {
	Source string `json:"source"`
	Lang   string `json:"lang,omitempty"`
	Target string `json:"target,omitempty"`
}

// DisasmResponse is the body of a successful POST /v1/disasm.
type DisasmResponse struct {
	Listing string `json:"listing"`
	Cached  bool   `json:"cached"`
}

// BenchmarkInfo describes one suite benchmark in GET /v1/benchmarks.
type BenchmarkInfo struct {
	Name      string `json:"name"`
	EDN       string `json:"edn,omitempty"` // paper-era EDN tag, when applicable
	Desc      string `json:"desc"`
	CallHeavy bool   `json:"call_heavy"`
}

// ExperimentResponse is the body of GET /v1/experiments/{id}.
type ExperimentResponse struct {
	ID    string `json:"id"`
	Table string `json:"table"`
}

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is a typed, machine-readable failure description.
type ErrorDetail struct {
	// Code is a stable identifier: bad_request, compile_error, deadline,
	// cycle_limit, runtime_fault, overloaded, shutting_down, not_found,
	// internal.
	Code    string `json:"code"`
	Message string `json:"message"`
	// Diagnostics lists per-line compiler/assembler errors, when available.
	Diagnostics []string `json:"diagnostics,omitempty"`
	// PC, Inst and Cycle locate a runtime fault in the guest program.
	PC    string `json:"pc,omitempty"`
	Inst  string `json:"inst,omitempty"`
	Cycle uint64 `json:"cycle,omitempty"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a typed error body.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}

// compileErrorBody maps a compile/assemble failure to a 400 body, expanding
// aggregated assembler diagnostics so clients see every problem at once.
func compileErrorBody(err error) ErrorBody {
	d := ErrorDetail{Code: "compile_error", Message: err.Error()}
	var list asm.ErrorList
	if errors.As(err, &list) {
		for _, e := range list {
			d.Diagnostics = append(d.Diagnostics, e.Error())
		}
	}
	return ErrorBody{Error: d}
}

// runErrorStatus maps a failed simulation to its HTTP status and typed body:
// 408 for a deadline, 503 for a canceled run (client gone or server
// draining), 422 for a genuine guest-program fault or an exhausted cycle
// budget — the request was well-formed, the program misbehaved.
func runErrorStatus(err error) (int, ErrorBody) {
	d := ErrorDetail{Code: "runtime_fault", Message: err.Error()}
	status := http.StatusUnprocessableEntity

	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status, d.Code = http.StatusRequestTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		status, d.Code = http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, core.ErrMaxCycles), errors.Is(err, cisc.ErrMaxCycles):
		d.Code = "cycle_limit"
	}

	var ce *core.RunError
	var xe *cisc.RunError
	switch {
	case errors.As(err, &ce):
		d.PC = fmt.Sprintf("%#08x", ce.PC)
		d.Inst = ce.Inst
		d.Cycle = ce.Cycles
	case errors.As(err, &xe):
		d.PC = fmt.Sprintf("%#08x", xe.PC)
		d.Inst = xe.Inst
		d.Cycle = xe.Cycles
	}
	return status, ErrorBody{Error: d}
}

// parseLang normalizes the front-end selector.
func parseLang(s string) (string, error) {
	switch s {
	case "", "cm", "c":
		return "cm", nil
	case "asm", "s":
		return "asm", nil
	}
	return "", fmt.Errorf("unknown lang %q (want cm or asm)", s)
}
