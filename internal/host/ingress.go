package host

import (
	"errors"
	"time"

	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// ErrStopped is returned by Submit once the ingress has been stopped:
// the request was not buffered and will never flush. Callers that
// outlive the host lifecycle (client frontends, retry loops) use it to
// redirect instead of silently losing the request.
var ErrStopped = errors.New("host: ingress stopped")

// DefaultMaxBatchLatency bounds how long a submitted request may sit in
// the ingress buffer before a flush is forced, independent of batch
// fill. At batch size 1 latency is irrelevant (every request flushes
// synchronously); beyond that, this keeps tail latency bounded under
// light load.
const DefaultMaxBatchLatency = 5 * time.Millisecond

// IngressOptions configures a client-request mempool.
type IngressOptions struct {
	// BatchSize is the number of requests that triggers a synchronous
	// flush; values < 1 are treated as 1 (unbatched, seed-equivalent
	// behavior: every Submit flushes immediately).
	BatchSize int
	// MaxLatency caps how long a buffered request waits for the batch
	// to fill before a timer-driven flush; <= 0 selects
	// DefaultMaxBatchLatency. Ignored at BatchSize 1.
	MaxLatency time.Duration
}

// Ingress is the shared client-request mempool of the replica-host
// kernel: protocols push deduplicated requests in and receive them back
// in arrival order as batches, either when BatchSize requests have
// accumulated or when the oldest buffered request has waited
// MaxLatency. Dedup and client-table bookkeeping stay in the protocol
// (they are protocol state); Ingress owns only buffering and flush
// policy, so XPaxos proposal batching and the tendermint mempool run
// the same code.
//
// Like all protocol state it is single-threaded: Submit, Flush, and
// Stop run on the node's event loop.
type Ingress struct {
	env     runtime.Env
	opts    IngressOptions
	flush   func([]*wire.Request, wire.TraceContext)
	buf     []*wire.Request
	span    obs.Active
	adopted wire.TraceContext
	timer   runtime.Timer
	stopped bool
	// gate, when set, defers flushes while it reports false: the buffer
	// keeps absorbing submissions (it may grow past BatchSize — that is
	// the point, the mempool is the backpressure reservoir) until the
	// owner reopens the gate and calls Flush. Nil means always open.
	gate func() bool
	// flushing guards against reentrant Flush: a flush callback that
	// frees window capacity may call Flush again synchronously.
	flushing bool

	// Per-request series, resolved at construction.
	pending   *metrics.GaugeHandle // host.ingress.pending{node}
	batchSize *metrics.HistHandle  // host.ingress.batch_size
}

// NewIngress creates a mempool delivering batches to flush. The flush
// callback runs on the node's event loop and owns the slice it is
// given; the trace context identifies the ingress span covering the
// batch's buffering time (zero when tracing is disabled).
func NewIngress(env runtime.Env, opts IngressOptions, flush func([]*wire.Request, wire.TraceContext)) *Ingress {
	if opts.BatchSize < 1 {
		opts.BatchSize = 1
	}
	if opts.MaxLatency <= 0 {
		opts.MaxLatency = DefaultMaxBatchLatency
	}
	if flush == nil {
		panic("host: ingress flush callback is required")
	}
	return &Ingress{env: env, opts: opts, flush: flush,
		pending:   runtime.NodeGauge(env, "host.ingress.pending"),
		batchSize: env.Metrics().HistHandle("host.ingress.batch_size"),
	}
}

// BatchSize returns the configured flush threshold.
func (in *Ingress) BatchSize() int { return in.opts.BatchSize }

// SetGate installs the flush gate (see the field comment); protocols
// use it for commit-window backpressure: a leader whose in-flight
// window is full closes the gate, and submissions pool in the mempool
// instead of turning into unbounded protocol state. Call Flush after
// the gate reopens — the ingress does not poll it.
func (in *Ingress) SetGate(gate func() bool) { in.gate = gate }

func (in *Ingress) gateOpen() bool { return in.gate == nil || in.gate() }

// Pending returns how many requests are buffered awaiting a flush.
func (in *Ingress) Pending() int { return len(in.buf) }

// noteDepth publishes the buffer depth as the host.ingress.pending
// node gauge. Under an open-loop workload this is the backpressure
// reservoir's fill level: it sits near zero while the commit window
// keeps up and climbs when the gate closes, so an overloaded or
// fault-stalled leader is visible without tracing.
func (in *Ingress) noteDepth() {
	in.pending.Set(float64(len(in.buf)))
}

// Submit buffers one request. When the buffer reaches BatchSize the
// batch flushes synchronously (so at BatchSize 1 Submit degenerates to
// a direct call into flush, matching the unbatched proposal path);
// otherwise a max-latency flush timer is armed for the first request of
// the batch. After Stop it buffers nothing and returns ErrStopped.
// Adopt joins the next ingress span to an upstream trace — a leader
// receiving a forwarded batch adopts the forwarder's context so the
// whole commit path hangs off one tree. Only the first adoption before
// a span opens takes effect (a merged batch keeps the first trace);
// a zero context is ignored.
func (in *Ingress) Adopt(tc wire.TraceContext) {
	if tc.Zero() || in.span.Traced() || !in.adopted.Zero() {
		return
	}
	in.adopted = tc
}

func (in *Ingress) Submit(req *wire.Request) error {
	if in.stopped {
		return ErrStopped
	}
	if len(in.buf) == 0 {
		in.span = runtime.TraceStart(in.env, "ingress", in.adopted)
		in.adopted = wire.TraceContext{}
	}
	in.buf = append(in.buf, req)
	if len(in.buf) >= in.opts.BatchSize && in.gateOpen() {
		in.Flush()
		return nil
	}
	in.noteDepth()
	if in.timer == nil {
		in.timer = in.env.After(in.opts.MaxLatency, func() {
			in.timer = nil
			in.Flush()
		})
	}
	return nil
}

// Flush delivers the buffered requests, if any, canceling a pending
// max-latency timer. Protocols call it directly when they gain the
// ability to propose (on becoming leader, or when commit-window
// capacity frees up) to drain requests buffered while they could not.
//
// Delivery is chunked at BatchSize and stops as soon as the gate
// closes, so a gated leader proposes exactly as much as its window
// admits: each chunk may consume capacity and shut the gate for the
// next. Ungated, the buffer never exceeds BatchSize (Submit flushes at
// the threshold), so the loop degenerates to the single whole-buffer
// delivery of the ungated design.
func (in *Ingress) Flush() {
	if in.flushing {
		return
	}
	if in.timer != nil {
		in.timer.Stop()
		in.timer = nil
	}
	if in.stopped || len(in.buf) == 0 {
		return
	}
	in.flushing = true
	first := true
	for len(in.buf) > 0 && in.gateOpen() {
		n := in.opts.BatchSize
		if n > len(in.buf) {
			n = len(in.buf)
		}
		batch := in.buf[:n:n]
		in.buf = in.buf[n:]
		if len(in.buf) == 0 {
			in.buf = nil
		}
		// Only the first chunk carries the ingress span: it covers the
		// buffering time of the oldest requests, and ending it once
		// keeps one span per buffered burst rather than one per chunk.
		var tc wire.TraceContext
		if first {
			first = false
			span := in.span
			in.span = obs.Active{}
			runtime.TraceEnd(in.env, span)
			tc = span.Context()
		}
		in.batchSize.Observe(float64(n))
		in.flush(batch, tc)
		if in.stopped {
			in.flushing = false
			return
		}
	}
	in.flushing = false
	in.noteDepth()
	if len(in.buf) > 0 {
		// Gated residue: its original span (if any) ended with the first
		// chunk, so open a fresh one covering the continued wait, and
		// re-arm the latency timer so the residue retries even if the
		// owner never calls Flush again.
		if first {
			// Nothing was delivered (gate closed at entry): the original
			// span and trace adoption still stand.
		} else if !in.span.Traced() {
			in.span = runtime.TraceStart(in.env, "ingress", wire.TraceContext{})
		}
		if in.timer == nil {
			in.timer = in.env.After(in.opts.MaxLatency, func() {
				in.timer = nil
				in.Flush()
			})
		}
	}
}

// Stop implements Stoppable: it cancels the flush timer and drops
// buffered requests (an ingress being stopped has no one left to
// propose them). Idempotent.
func (in *Ingress) Stop() {
	if in.stopped {
		return
	}
	in.stopped = true
	if in.timer != nil {
		in.timer.Stop()
		in.timer = nil
	}
	in.buf = nil
	in.noteDepth()
	in.span = obs.Active{} // dropped, never recorded
}
