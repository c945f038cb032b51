// Package transport runs the same protocol nodes that the simulator
// drives (runtime.Node implementations) over real TCP connections.
//
// Each process is a Host: a listener plus on-demand dialed peer
// connections. Frames are length-prefixed canonical wire encodings,
// preceded on each connection by a 4-byte hello naming the sending
// process. All inbound messages and timer callbacks are serialized onto
// one event loop per Host, preserving the paper's single-threaded
// module semantics, so protocol code needs no locks here either.
//
// Link authentication is the hello claim plus per-message content
// signatures (ed25519/HMAC via the crypto package) on every Signed
// message; heartbeats are accepted on the hello claim alone. Each
// connection's reader checks a frame's signature as it lands
// (runtime.Authenticate) and posts one loop event per authenticated
// frame, so the loop never waits for crypto and never sees a forgery.
// A production deployment would add TLS on the links; the paper's
// adversary model only requires unforgeable message signatures, which
// the content signatures provide.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"math/rand"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/obs/tracer"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// maxFrame bounds accepted frame sizes.
const maxFrame = 4 << 20

// dialRetryDelay paces reconnection attempts.
const dialRetryDelay = 100 * time.Millisecond

// readBufferSize is each connection reader's buffer: one read syscall
// takes in every frame of a writev burst up to this size.
const readBufferSize = 32 << 10

// Config describes one process of a TCP deployment.
type Config struct {
	// Self is this process's identity.
	Self ids.ProcessID
	// System holds the replication parameters (n, f).
	System ids.Config
	// ListenAddr is the local address to listen on (e.g.
	// "127.0.0.1:7001"). If empty, an ephemeral localhost port is
	// used; Addr reports it.
	ListenAddr string
	// Peers maps every other process to its address. Entries may be
	// filled in later with SetPeerAddr (before traffic to that peer).
	Peers map[ids.ProcessID]string
	// Auth signs and verifies messages (default crypto.NopRing).
	Auth crypto.Authenticator
	// Metrics receives accounting (default: fresh registry).
	Metrics *metrics.Registry
	// Events receives typed protocol events (default: fresh bus with
	// obs.DefaultCapacity).
	Events *obs.Bus
	// Tracer records causal commit-path spans (nil: tracing disabled).
	// Spans are stamped against this host's monotonic clock (time since
	// host start), so durations are per-host; trace structure (IDs,
	// parents) is comparable across hosts.
	Tracer *tracer.Tracer
	// Seed drives the Env's randomness (default 1).
	Seed int64
}

// Host runs one runtime.Node over TCP.
type Host struct {
	cfg  Config
	node runtime.Node

	listener net.Listener
	events   chan func()
	done     chan struct{}
	wg       sync.WaitGroup
	start    time.Time

	// selfq holds what the node sent to itself from the closure the
	// loop is running; the loop delivers it, in send order, when that
	// closure returns. Owned by the event loop (Env is loop-only, see
	// package runtime), so no lock. Queuing these on events instead
	// would park the loop on a full channel that only it drains.
	selfq []wire.Message

	mu      sync.Mutex
	addrs   map[ids.ProcessID]string
	writers map[ids.ProcessID]*peerWriter
	closed  bool

	// pool fans quorum-certificate batches out across GOMAXPROCS
	// goroutines.
	pool *crypto.Pool

	m   hostMetrics
	env *hostEnv
}

// Frame directions of the per-type transport counters.
const (
	dirSent = iota
	dirRecv
)

// hostMetrics are the per-frame series, resolved at NewHost. The
// {type,dir}-labeled counters are tables indexed by wire.Type and
// direction, so accounting a frame formats no label.
type hostMetrics struct {
	messages, bytes [wire.NumTypes][2]*metrics.CounterHandle

	sent, received, writevFlushes, verifyAsync, verifyBatched, badsig *metrics.CounterHandle

	writevFrames *metrics.HistHandle  // transport.writev.frames
	sendqDepth   *metrics.GaugeHandle // transport.sendq.depth{node}
}

func newHostMetrics(reg *metrics.Registry, self ids.ProcessID) hostMetrics {
	m := hostMetrics{
		sent:          reg.CounterHandle("transport.sent"),
		received:      reg.CounterHandle("transport.received"),
		writevFlushes: reg.CounterHandle("transport.writev.flushes"),
		verifyAsync:   reg.CounterHandle("transport.verify.async"),
		verifyBatched: reg.CounterHandle("transport.verify.batched"),
		badsig:        reg.CounterHandle("fd.dropped.badsig"),
		writevFrames:  reg.HistHandle("transport.writev.frames"),
		sendqDepth:    reg.GaugeHandle("transport.sendq.depth", metrics.L{Key: "node", Value: self.String()}),
	}
	for t := 1; t < wire.NumTypes; t++ {
		kind := metrics.L{Key: "type", Value: wire.Type(t).String()}
		for dir, name := range [2]string{dirSent: "sent", dirRecv: "recv"} {
			labels := []metrics.L{kind, {Key: "dir", Value: name}}
			m.messages[t][dir] = reg.CounterHandle("transport.messages.total", labels...)
			m.bytes[t][dir] = reg.CounterHandle("transport.bytes.total", labels...)
		}
	}
	return m
}

// count accounts one frame of the given kind and size.
func (m *hostMetrics) count(kind wire.Type, dir, size int) {
	m.messages[kind][dir].Inc()
	m.bytes[kind][dir].Add(int64(size))
}

// NewHost creates and starts a Host: it listens, starts the event loop,
// and calls node.Init on the loop.
func NewHost(cfg Config, node runtime.Node) (*Host, error) {
	if cfg.Auth == nil {
		cfg.Auth = crypto.NopRing{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Events == nil {
		cfg.Events = obs.NewBus(0)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if !cfg.Self.Valid(cfg.System.N) {
		return nil, fmt.Errorf("transport: self %s outside Π with n=%d", cfg.Self, cfg.System.N)
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	h := &Host{
		cfg:      cfg,
		node:     node,
		listener: ln,
		events:   make(chan func(), 1024),
		done:     make(chan struct{}),
		start:    time.Now(),
		addrs:    make(map[ids.ProcessID]string, len(cfg.Peers)),
		writers:  make(map[ids.ProcessID]*peerWriter),
		m:        newHostMetrics(cfg.Metrics, cfg.Self),
		pool:     crypto.NewPool(cfg.Auth, 0),
	}
	for p, a := range cfg.Peers {
		h.addrs[p] = a
	}
	h.env = &hostEnv{
		h:   h,
		rng: rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Self))),
	}

	h.wg.Add(2)
	go h.acceptLoop()
	go h.eventLoop()

	initDone := make(chan struct{})
	h.events <- func() {
		node.Init(h.env)
		close(initDone)
	}
	<-initDone
	return h, nil
}

// Addr returns the listener's address (useful with ephemeral ports).
func (h *Host) Addr() string { return h.listener.Addr().String() }

// Metrics returns the host's registry (for /metrics frontends).
func (h *Host) Metrics() *metrics.Registry { return h.cfg.Metrics }

// Events returns the host's protocol event bus (for /events frontends).
func (h *Host) Events() *obs.Bus { return h.cfg.Events }

// Tracer returns the host's span recorder (nil when tracing is
// disabled; for /trace frontends).
func (h *Host) Tracer() *tracer.Tracer { return h.cfg.Tracer }

// SetPeerAddr records or updates a peer's address.
func (h *Host) SetPeerAddr(p ids.ProcessID, addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.addrs[p] = addr
}

// Do runs fn on the host's event loop and waits for it — the way tests
// and frontends interact with the protocol node safely. If the host
// closes first, Do returns without fn having run: the loop may exit
// with the closure still queued, so waiting only on doneCh would hang
// callers racing a shutdown.
func (h *Host) Do(fn func()) {
	doneCh := make(chan struct{})
	select {
	case h.events <- func() { fn(); close(doneCh) }:
		select {
		case <-doneCh:
		case <-h.done:
		}
	case <-h.done:
	}
}

// Close tears the node down through the runtime.Stopper lifecycle (on
// the event loop, like every other node entry point), then shuts the
// transport down and waits for its goroutines. Closing an already
// closed host is a no-op returning nil.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	writers := make([]*peerWriter, 0, len(h.writers))
	for _, w := range h.writers {
		writers = append(writers, w)
	}
	h.mu.Unlock()

	// Stop the node before stopping the loop, so heartbeaters and
	// protocol timers cancel cleanly. If the loop's queue is saturated,
	// skip the stop rather than deadlock the shutdown: the loop exits
	// next and pending timers die with the process.
	stopDone := make(chan struct{})
	select {
	case h.events <- func() { runtime.StopNode(h.node); close(stopDone) }:
		<-stopDone
	default:
	}

	close(h.done)
	err := h.listener.Close()
	for _, w := range writers {
		w.close()
	}
	h.wg.Wait()
	return err
}

func (h *Host) eventLoop() {
	defer h.wg.Done()
	for {
		select {
		case fn := <-h.events:
			fn()
		case <-h.done:
			return
		}
		// A delivery may itself send to self; the index walk picks
		// those up too.
		for i := 0; i < len(h.selfq); i++ {
			msg := h.selfq[i]
			h.selfq[i] = nil
			h.node.Receive(h.cfg.Self, msg)
		}
		h.selfq = h.selfq[:0]
	}
}

func (h *Host) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.listener.Accept()
		if err != nil {
			select {
			case <-h.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		h.cfg.Metrics.Inc("transport.conns.accepted", 1)
		h.wg.Add(1)
		go h.readLoop(conn)
	}
}

// readLoop consumes one inbound connection: a 4-byte hello naming the
// sender, then length-prefixed frames. Each frame is authenticated here,
// on the connection's own goroutine, and an authentic one becomes one
// loop event, so the loop receives every link's frames in the order the
// link carried them.
func (h *Host) readLoop(conn net.Conn) {
	defer h.wg.Done()
	defer conn.Close()
	go func() { // unblock Read on shutdown
		<-h.done
		conn.Close()
	}()
	rd := bufio.NewReaderSize(conn, readBufferSize)
	var hello [4]byte
	if _, err := io.ReadFull(rd, hello[:]); err != nil {
		return
	}
	from := ids.ProcessID(binary.BigEndian.Uint32(hello[:]))
	if !from.Valid(h.cfg.System.N) {
		h.cfg.Metrics.Inc("transport.hello.invalid", 1)
		return
	}
	// buf is reused frame after frame: decoded messages never alias it.
	var buf []byte
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(rd, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			h.cfg.Metrics.Inc("transport.frame.bad_length", 1)
			return
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(rd, buf); err != nil {
			return
		}
		msg, checked, err := runtime.Authenticate(h.cfg.Auth, buf)
		if err != nil && err != runtime.ErrForged {
			h.cfg.Metrics.Inc("transport.decode.errors", 1)
			continue
		}
		h.m.received.Inc()
		h.m.count(msg.Kind(), dirRecv, int(n))
		if checked {
			h.m.verifyAsync.Inc()
		}
		if err != nil {
			h.m.badsig.Inc()
			continue
		}
		select {
		case h.events <- func() { h.node.Receive(from, msg) }:
		case <-h.done:
			return
		}
	}
}

// send queues a frame for a peer, creating the writer on demand.
func (h *Host) send(to ids.ProcessID, m wire.Message) {
	if to == h.cfg.Self {
		// Local delivery after the current handler, through the same
		// codec round-trip a peer's copy takes. The round-trip uses a
		// pooled buffer; decoded messages never alias it.
		msg := m
		data := wire.EncodePooled(m)
		decoded, err := wire.Decode(data)
		if err == nil {
			msg = decoded
		}
		wire.Recycle(data)
		h.selfq = append(h.selfq, msg)
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	w, ok := h.writers[to]
	if !ok {
		w = newPeerWriter(h, to)
		h.writers[to] = w
	}
	h.mu.Unlock()
	h.m.sent.Inc()
	// The frame is drawn from the wire pool; the peer writer recycles
	// it after the bytes hit the socket.
	frame := wire.EncodePooled(m)
	h.m.count(m.Kind(), dirSent, len(frame))
	w.enqueue(frame)
}

// peerAddr resolves a peer's current address.
func (h *Host) peerAddr(p ids.ProcessID) (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.addrs[p]
	return a, ok
}

// peerWriter owns the outbound connection to one peer: a queue drained
// by a single goroutine that dials (and re-dials) as needed.
type peerWriter struct {
	h    *Host
	peer ids.ProcessID

	mu     sync.Mutex
	queue  [][]byte
	wake   chan struct{}
	closed bool
}

func newPeerWriter(h *Host, peer ids.ProcessID) *peerWriter {
	w := &peerWriter{h: h, peer: peer, wake: make(chan struct{}, 1)}
	h.wg.Add(1)
	go w.run()
	return w
}

func (w *peerWriter) enqueue(frame []byte) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.queue = append(w.queue, frame)
	w.h.m.sendqDepth.Add(1)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *peerWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// run drains the queue with vectored writes: every pass takes whatever
// frames have accumulated and hands the kernel one writev-style buffer
// chain — [len₁, frame₁, len₂, frame₂, …] — via net.Buffers, so a
// window of pipelined PREPAREs costs one syscall instead of two per
// frame. On a connection error the whole batch is retried on a fresh
// connection; frames that already hit the old socket may arrive twice,
// the same at-least-once semantics the per-frame retry had (the
// protocols deduplicate).
func (w *peerWriter) run() {
	defer w.h.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-w.wake:
		case <-w.h.done:
			return
		}
		for {
			frames, ok := w.popAll()
			if !ok {
				break
			}
			lens := make([]byte, 4*len(frames))
			for {
				if w.stopped() {
					return
				}
				if conn == nil {
					conn = w.dial()
					if conn == nil {
						select {
						case <-time.After(dialRetryDelay):
							continue
						case <-w.h.done:
							return
						}
					}
				}
				// WriteTo consumes its Buffers slice (partial writes
				// shift it), so the chain is rebuilt from the retained
				// frames on every attempt.
				bufs := make(net.Buffers, 0, 2*len(frames))
				for i, frame := range frames {
					l := lens[4*i : 4*i+4]
					binary.BigEndian.PutUint32(l, uint32(len(frame)))
					bufs = append(bufs, l, frame)
				}
				conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
				if _, err := bufs.WriteTo(conn); err != nil {
					conn.Close()
					conn = nil
					continue
				}
				// Batch delivered to the kernel; return the buffers to
				// the encode pool.
				for _, frame := range frames {
					wire.Recycle(frame)
				}
				w.h.m.writevFlushes.Inc()
				w.h.m.writevFrames.Observe(float64(len(frames)))
				break
			}
		}
	}
}

// popAll takes the whole queued backlog in one swap.
func (w *peerWriter) popAll() ([][]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.queue) == 0 {
		return nil, false
	}
	frames := w.queue
	w.queue = nil
	w.h.m.sendqDepth.Add(-float64(len(frames)))
	return frames, true
}

func (w *peerWriter) stopped() bool {
	select {
	case <-w.h.done:
		return true
	default:
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// dial opens the connection and sends the hello; nil on failure.
func (w *peerWriter) dial() net.Conn {
	addr, ok := w.h.peerAddr(w.peer)
	if !ok {
		return nil
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		w.h.cfg.Metrics.Inc("transport.dial.errors", 1)
		return nil
	}
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(w.h.cfg.Self))
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil
	}
	// One counter tick per established outbound connection: the fleet's
	// mux test pins R×N shard traffic to exactly n-1 of these per host.
	w.h.cfg.Metrics.Inc("transport.conns.dialed", 1)
	return conn
}

// hostEnv implements runtime.Env over a Host.
type hostEnv struct {
	h   *Host
	rng *rand.Rand
}

var _ runtime.Env = (*hostEnv)(nil)

func (e *hostEnv) ID() ids.ProcessID          { return e.h.cfg.Self }
func (e *hostEnv) Config() ids.Config         { return e.h.cfg.System }
func (e *hostEnv) Now() time.Duration         { return time.Since(e.h.start) }
func (e *hostEnv) Rand() *rand.Rand           { return e.rng }
func (e *hostEnv) Auth() crypto.Authenticator { return e.h.cfg.Auth }
func (e *hostEnv) Metrics() *metrics.Registry { return e.h.cfg.Metrics }
func (e *hostEnv) Events() *obs.Bus           { return e.h.cfg.Events }
func (e *hostEnv) Tracer() *tracer.Tracer     { return e.h.cfg.Tracer }

func (e *hostEnv) Send(to ids.ProcessID, m wire.Message) {
	if !to.Valid(e.h.cfg.System.N) {
		e.h.cfg.Metrics.Inc("transport.send.outside_pi", 1)
		return
	}
	e.h.send(to, m)
}

var _ runtime.BatchVerifier = (*hostEnv)(nil)

// VerifyBatch implements runtime.BatchVerifier: one deduplicated,
// fanned-out pass over a certificate's signatures.
func (e *hostEnv) VerifyBatch(items []crypto.BatchItem) []error {
	e.h.m.verifyBatched.Add(int64(len(items)))
	return e.h.pool.VerifyBatch(items)
}

func (e *hostEnv) After(d time.Duration, fn func()) runtime.Timer {
	t := &hostTimer{}
	t.timer = time.AfterFunc(d, func() {
		select {
		case e.h.events <- func() {
			t.mu.Lock()
			if t.stopped {
				t.mu.Unlock()
				return
			}
			t.ran = true
			t.mu.Unlock()
			fn()
		}:
		case <-e.h.done:
		}
	})
	return t
}

// hostTimer adapts time.Timer to runtime.Timer with loop-side
// cancellation (Stop may race with an already-queued callback; the
// stopped flag keeps the callback from running in that case).
type hostTimer struct {
	mu      sync.Mutex
	timer   *time.Timer
	stopped bool
	ran     bool
}

// Stop implements runtime.Timer: it reports whether the callback was
// prevented from running.
func (t *hostTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || t.ran {
		return false
	}
	t.stopped = true
	t.timer.Stop()
	return true
}
