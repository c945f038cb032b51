package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	qs "quorumselect"
	"quorumselect/internal/obs"
	"quorumselect/internal/wire"
)

// frontend is the client-facing HTTP API of one XPaxos server:
//
//	POST /submit          body = operation; returns the execution result
//	GET  /status          JSON: per-shard view, leader, quorum, executed
//	GET  /kv?key=k        read a key from the owning shard's state machine
//	GET  /metrics         Prometheus text exposition of the host registry
//	GET  /events?since=N  JSON: the stream's records (events, spans) with Seq > N
//	GET  /trace           flight-recorder dump of the stream (?format=chrome)
//
// With a fleet (-shards > 1) the frontend routes every operation to
// its owning shard through the deterministic consistent-hash router —
// the key is the second whitespace field of the operation ("set k v",
// "get k"), falling back to the whole operation — so every frontend in
// the cluster computes the same placement with no coordination.
// Submissions are assigned client/sequence numbers per frontend; the
// handler blocks (with a timeout) until the operation executes locally.
type frontend struct {
	host     *qs.Host
	replicas []*qs.XPaxosReplica // indexed by shard
	kvs      []*qs.KVMachine
	router   *qs.ShardRouter

	mu      sync.Mutex
	nextSeq uint64
	client  uint64
	waiters map[uint64]chan []byte // seq → result
}

func newFrontend(host *qs.Host, replicas []*qs.XPaxosReplica, kvs []*qs.KVMachine, clientID uint64) *frontend {
	return &frontend{
		host:     host,
		replicas: replicas,
		kvs:      kvs,
		router:   qs.NewShardRouter(len(replicas)),
		client:   clientID,
		waiters:  make(map[uint64]chan []byte),
	}
}

// shardFor routes an operation to its owning shard by key.
func (f *frontend) shardFor(op []byte) int {
	key := string(op)
	if fields := strings.Fields(key); len(fields) >= 2 {
		key = fields[1]
	}
	return f.router.RouteString(key)
}

// onExecute is wired into every shard replica's OnExecute hook (called
// on the host's event loop). Sequence numbers are assigned per
// frontend, so they are unique across the shards it submitted to.
func (f *frontend) onExecute(_ int, e qs.Execution) {
	if e.Client != f.client {
		return
	}
	f.mu.Lock()
	ch, ok := f.waiters[e.Seq]
	if ok {
		delete(f.waiters, e.Seq)
	}
	f.mu.Unlock()
	if ok {
		ch <- append([]byte(nil), e.Result...)
	}
}

func (f *frontend) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	op, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil || len(op) == 0 {
		http.Error(w, "empty operation", http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	f.nextSeq++
	seq := f.nextSeq
	ch := make(chan []byte, 1)
	f.waiters[seq] = ch
	f.mu.Unlock()

	replica := f.replicas[f.shardFor(op)]
	f.host.Do(func() {
		replica.Submit(&wire.Request{Client: f.client, Seq: seq, Op: op})
	})
	select {
	case result := <-ch:
		w.WriteHeader(http.StatusOK)
		w.Write(result)
	case <-time.After(10 * time.Second):
		f.mu.Lock()
		delete(f.waiters, seq)
		f.mu.Unlock()
		http.Error(w, "timed out waiting for execution", http.StatusGatewayTimeout)
	}
}

func (f *frontend) handleStatus(w http.ResponseWriter, _ *http.Request) {
	type shardStatus struct {
		Shard    int      `json:"shard"`
		View     uint64   `json:"view"`
		Leader   string   `json:"leader"`
		IsLeader bool     `json:"is_leader"`
		Quorum   []string `json:"quorum"`
		Spec     string   `json:"quorum_spec"`
		Executed uint64   `json:"executed"`
	}
	var status struct {
		Shards int           `json:"shards"`
		Groups []shardStatus `json:"groups"`
	}
	status.Shards = len(f.replicas)
	f.host.Do(func() {
		for s, replica := range f.replicas {
			st := shardStatus{
				Shard:    s,
				View:     replica.View(),
				Leader:   replica.Leader().String(),
				IsLeader: replica.IsLeader(),
				Executed: replica.LastExecuted(),
			}
			if sys := replica.System(); sys != nil {
				st.Spec = sys.String()
			}
			for _, p := range replica.ActiveQuorum().Members {
				st.Quorum = append(st.Quorum, p.String())
			}
			status.Groups = append(status.Groups, st)
		}
	})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(status)
}

func (f *frontend) handleKV(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing ?key=", http.StatusBadRequest)
		return
	}
	kv := f.kvs[f.router.RouteString(key)]
	var value string
	var ok bool
	f.host.Do(func() { value, ok = kv.Get(key) })
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	fmt.Fprintln(w, value)
}

// handleMetrics serves the host's registry in Prometheus text
// exposition format 0.0.4. The observability-loss gauge (stream
// evictions) is refreshed at scrape time so it always reflects the
// ring's current total.
func (f *frontend) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := f.host.Metrics()
	reg.SetGauge("obs.bus.dropped", float64(f.host.Events().Dropped()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WriteTo(w)
}

// handleTrace dumps the host's stream as a flight-recorder snapshot:
// its span and event views. ?format=chrome re-encodes the dump in
// Chrome trace-event format for chrome://tracing / Perfetto.
func (f *frontend) handleTrace(w http.ResponseWriter, r *http.Request) {
	d := obs.Capture("trace endpoint", f.host.Events())
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		w.Write(d.Chrome())
		return
	}
	w.Write(d.JSON())
}

// handleEvents serves the host's stream as JSON: protocol events and,
// while spans are on, SPAN records, in one sequence order. ?since=N
// returns only records with Seq > N; "missed" counts matching records
// already evicted from the ring (the caller fell behind), and "latest"
// is the cursor to pass as ?since= on the next poll. A cursor past the
// stream's total came from an earlier process (the replica restarted),
// so it is served from the start.
func (f *frontend) handleEvents(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad ?since=", http.StatusBadRequest)
			return
		}
		since = v
	}
	stream := f.host.Events()
	if since > stream.Total() {
		since = 0
	}
	events, missed := stream.Since(since)
	if events == nil {
		events = []qs.Event{}
	}
	// The cursor comes from the same read as the events: a second read
	// of the bus total would skip whatever was published in between.
	resp := struct {
		Events []qs.Event `json:"events"`
		Missed uint64     `json:"missed"`
		Latest uint64     `json:"latest"`
	}{Events: events, Missed: missed, Latest: since + missed + uint64(len(events))}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// serveHTTP starts the frontend listener; it returns the server for
// shutdown.
func serveHTTP(addr string, f *frontend) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", f.handleSubmit)
	mux.HandleFunc("/status", f.handleStatus)
	mux.HandleFunc("/kv", f.handleKV)
	mux.HandleFunc("/metrics", f.handleMetrics)
	mux.HandleFunc("/events", f.handleEvents)
	mux.HandleFunc("/trace", f.handleTrace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Printf("http frontend: %v\n", err)
		}
	}()
	return srv
}

// serveDebug starts a pprof-only listener on its own mux, so profiling
// stays off the client-facing frontend unless explicitly enabled.
func serveDebug(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Printf("debug listener: %v\n", err)
		}
	}()
	return srv
}
