// The streaming run endpoint: POST /v1/run/stream executes the same
// simulation as /v1/run but emits Server-Sent Events while it runs —
// console output the moment the guest writes it, sampled progress frames,
// then one terminal result or error event. Two serving problems motivate
// it:
//
//   - A long simulation is invisible over /v1/run until it finishes, and a
//     chatty one buffers up to the 1 MiB console cap server-side before a
//     single byte reaches the client. Streaming forwards chunks as they are
//     written (including everything past the cap that the buffered response
//     would truncate), so server memory per run stays bounded regardless of
//     guest verbosity.
//   - A watcher that goes away should take its simulation with it. The
//     stream runs under the request context, so a dropped connection
//     cancels the run at the next batch boundary and frees the worker —
//     no abandoned simulations grinding the pool.
//
// Backpressure is the channel: console chunks are sent blocking, so a guest
// that prints faster than the client reads stalls at the next chunk instead
// of growing a buffer. Stats frames are droppable by design — they are
// samples, not a ledger — so they use a non-blocking send and whatever
// frame is current when the writer frees up wins.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"risc1"
)

// streamWriteGrace is how long past the run's deadline a stream may still
// write, to deliver its terminal event to a slow client.
const streamWriteGrace = time.Second

// streamEvent is one SSE frame waiting to be written.
type streamEvent struct {
	kind string // "console", "stats", "result" or "error"
	data any
}

func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	p, ok := s.parseRun(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal",
			"response writer cannot stream")
		return
	}

	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	// Compile before committing to the SSE response: a compile error is
	// still an ordinary JSON 400 at this point.
	img, hit, err := s.image(p.lang, p.target, p.req.Source)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, compileErrorBody(err))
		return
	}

	s.streams.Add(1)
	defer s.streams.Add(-1)

	ctx, cancel := s.runCtx(r, p.req.TimeoutMS)
	defer cancel()
	// A client that stops reading blocks the writer below in Write, and the
	// worker with it. The run ends at its deadline; the writes get a grace
	// past it to deliver the terminal event, then fail. (The error is for a
	// writer without deadlines; net/http's has them.)
	deadline, _ := ctx.Deadline()
	_ = http.NewResponseController(w).SetWriteDeadline(deadline.Add(streamWriteGrace))

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	counts := map[string]uint64{"start": 1}
	writeSSE(w, flusher, "start", StreamStart{
		Cached:     hit,
		IntervalMS: s.cfg.StreamInterval.Milliseconds(),
	})

	// The simulation goroutine owns the events channel: it is the only
	// sender and closes it when the run is over, terminal event included.
	// Every send selects on ctx.Done so a gone client can never strand it.
	events := make(chan streamEvent)
	go func() {
		defer close(events)
		send := func(ev streamEvent) bool {
			select {
			case events <- ev:
				return true
			case <-ctx.Done():
				return false
			}
		}
		var lastFrame time.Time // goroutine-local; monitor hooks run here
		mon := &risc1.RunMonitor{
			Console: func(chunk string) {
				send(streamEvent{"console", StreamConsole{Chunk: chunk}})
			},
			Progress: func(instructions, cycles uint64) {
				if time.Since(lastFrame) < s.cfg.StreamInterval {
					return
				}
				select { // droppable: a stale sample has no value
				case events <- streamEvent{"stats", StreamStats{
					Instructions: instructions, Cycles: cycles,
				}}:
					lastFrame = time.Now()
				case <-ctx.Done():
				default:
				}
			},
		}
		opt := s.runOptions(p)
		opt.Monitor = mon
		info, err := risc1.RunImage(ctx, img, opt)
		s.met.addRun(p.engine.String())
		if err != nil {
			_, body := runErrorStatus(err)
			send(streamEvent{"error", body.Error})
			return
		}
		s.met.addReport(info, p.req.Race)
		send(streamEvent{"result", runResult(info, hit)})
	}()

	// Writer loop: drain until the simulation closes the channel. If the
	// client is gone, writes fail silently and ctx cancellation (wired to
	// r.Context by runCtx) stops the simulation; the loop still drains
	// whatever the goroutine manages to send, keeping shutdown leak-free.
	for ev := range events {
		writeSSE(w, flusher, ev.kind, ev.data)
		counts[ev.kind]++
	}
	for kind, n := range counts {
		s.met.addStreamEvents(kind, n)
	}
}

// writeSSE emits one Server-Sent Event with a JSON payload and flushes it to
// the socket.
func writeSSE(w http.ResponseWriter, f http.Flusher, event string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	f.Flush()
}
