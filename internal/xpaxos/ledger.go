package xpaxos

import (
	"fmt"
	"sort"

	"quorumselect/internal/wire"
)

// Ledger is the replicated log below consensus that XPaxos and
// pbftlite share: the committed slots not yet executed, the execution
// cursor, the client table that makes execution exactly-once, and the
// executed history. A protocol commits slots in any order with Commit
// and executes them in slot order with Next and Execute (or
// ExecuteCommitted, when it does nothing around each slot); one that
// decides strictly in order may Execute directly. A ledger lives on its replica's event loop and is not safe
// for concurrent use.
type Ledger struct {
	sm        StateMachine
	onExecute func(Execution)

	committed map[uint64][]*wire.Request // committed slots above lastExec
	lastExec  uint64
	clients   map[uint64]uint64 // client → highest executed seq
	// history is the executed history, each execution in its layout
	// back to back, as the durable snapshot holds it: one byte slice, so
	// the collector has no pointers to scan in it however long the run.
	// executed counts its entries.
	history  []byte
	executed uint32
	// recovering marks a WAL replay: the replayed executions were
	// reported before the crash, so onExecute stays silent.
	recovering bool
}

// NewLedger returns an empty ledger executing on sm. onExecute, if
// non-nil, observes every execution in slot order, except those a WAL
// replay repeats.
func NewLedger(sm StateMachine, onExecute func(Execution)) *Ledger {
	return &Ledger{
		sm:        sm,
		onExecute: onExecute,
		committed: make(map[uint64][]*wire.Request),
		clients:   make(map[uint64]uint64),
	}
}

// Commit records slot's decided batch, in proposal order. A slot at or
// below the cursor has executed already and is ignored.
func (l *Ledger) Commit(slot uint64, reqs []*wire.Request) {
	if slot > l.lastExec {
		l.committed[slot] = reqs
	}
}

// Committed reports whether slot has committed: it executed, or it waits
// for the slots before it.
func (l *Ledger) Committed(slot uint64) bool {
	_, ok := l.committed[slot]
	return ok || slot <= l.lastExec
}

// Next returns the slot after the cursor and its batch, if that slot
// has committed.
func (l *Ledger) Next() (uint64, []*wire.Request, bool) {
	slot := l.lastExec + 1
	reqs, ok := l.committed[slot]
	return slot, reqs, ok
}

// Execute runs slot's batch in order and advances the cursor to slot,
// which must be the one after it. A request whose seq is at or below
// its client's executed seq ran before (a re-submitted forward or a
// client retry can hold a second slot) and is skipped. The client table
// is replicated and checkpointed, so every replica skips the same
// entries. Execute returns how many requests ran.
func (l *Ledger) Execute(slot uint64, reqs []*wire.Request) int {
	if slot != l.lastExec+1 {
		panic(fmt.Sprintf("xpaxos: ledger executes slot %d after slot %d", slot, l.lastExec))
	}
	delete(l.committed, slot)
	l.lastExec = slot
	ran := 0
	for _, req := range reqs {
		if l.Executed(req) {
			continue
		}
		result := l.sm.Apply(req.Op)
		l.clients[req.Client] = req.Seq
		exec := Execution{
			Slot:   slot,
			Client: req.Client,
			Seq:    req.Seq,
			Op:     req.Op,
			Result: result,
		}
		c := wire.NewEncoder(l.history)
		exec.layout(c)
		l.history = c.Encoded()
		l.executed++
		ran++
		if l.onExecute != nil && !l.recovering {
			l.onExecute(exec)
		}
	}
	return ran
}

// ExecuteCommitted executes committed slots in order until the slot
// after the cursor has not committed.
func (l *Ledger) ExecuteCommitted() {
	for slot, reqs, ok := l.Next(); ok; slot, reqs, ok = l.Next() {
		l.Execute(slot, reqs)
	}
}

// Executed reports whether req's (client, seq) has executed, or a later
// seq of the same client has, which retires it too.
func (l *Ledger) Executed(req *wire.Request) bool {
	return req.Seq <= l.clients[req.Client]
}

// LastExecuted returns the execution cursor: the highest executed slot.
func (l *Ledger) LastExecuted() uint64 { return l.lastExec }

// Executions decodes the executed history, in order, into values the
// caller owns: changing one changes neither the ledger nor a later
// call's result.
func (l *Ledger) Executions() []Execution {
	out := make([]Execution, l.executed)
	c := wire.NewDecoder(l.history)
	for i := range out {
		out[i].layout(c)
	}
	_ = c.Decoded() // the ledger's own bytes, checked when restored
	return out
}

// SetRecovering marks the start (true) and end (false) of a WAL replay,
// during which executions are not reported to onExecute.
func (l *Ledger) SetRecovering(on bool) { l.recovering = on }

// Recovering reports whether a WAL replay is in progress.
func (l *Ledger) Recovering() bool { return l.recovering }

// checkpointBlob is the checkpoint a view change ships and the durable
// snapshot keeps: the client table sorted by client, so duplicate
// suppression survives a restore, then the state machine's snapshot.
type checkpointBlob struct {
	clients []clientSeq
	state   []byte
}

// clientSeq is one client table entry: the client's highest executed
// seq.
type clientSeq struct{ client, seq uint64 }

func (b *checkpointBlob) layout(c *wire.Codec) {
	for i := range wire.Elems(c, &b.clients, 16) {
		c.U64(&b.clients[i].client)
		c.U64(&b.clients[i].seq)
	}
	c.Bytes(&b.state)
}

// checkpoint encodes the checkpoint blob. It reports false when the
// state machine cannot snapshot.
func (l *Ledger) checkpoint() ([]byte, bool) {
	snap, ok := l.sm.(Snapshotter)
	if !ok {
		return nil, false
	}
	b := checkpointBlob{clients: make([]clientSeq, 0, len(l.clients)), state: snap.Snapshot()}
	for client, seq := range l.clients {
		b.clients = append(b.clients, clientSeq{client, seq})
	}
	sort.Slice(b.clients, func(i, j int) bool { return b.clients[i].client < b.clients[j].client })
	c := wire.NewEncoder(nil)
	b.layout(c)
	return c.Encoded(), true
}

// restore installs a checkpoint blob taken after executing slot: state
// machine, client table and cursor. Committed slots the checkpoint
// covers are dropped. A blob that does not decode changes nothing.
func (l *Ledger) restore(slot uint64, data []byte) error {
	snap, ok := l.sm.(Snapshotter)
	if !ok {
		return fmt.Errorf("xpaxos: state machine %T cannot restore snapshots", l.sm)
	}
	var b checkpointBlob
	c := wire.NewDecoder(data)
	b.layout(c)
	if err := c.Decoded(); err != nil {
		return fmt.Errorf("xpaxos: corrupt checkpoint: %w", err)
	}
	if err := snap.Restore(b.state); err != nil {
		return err
	}
	l.clients = make(map[uint64]uint64, len(b.clients))
	for _, e := range b.clients {
		l.clients[e.client] = e.seq
	}
	l.lastExec = slot
	for s := range l.committed {
		if s <= slot {
			delete(l.committed, s)
		}
	}
	return nil
}
