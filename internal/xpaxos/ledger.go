package xpaxos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"quorumselect/internal/wire"
)

// Ledger is the replicated log below consensus that XPaxos, pbftlite
// and tendermint share: the committed slots not yet executed, the
// execution cursor, the client table that makes execution exactly-once,
// and the executed history. A protocol commits slots in any order with
// Commit and executes them in slot order with Next and Execute (or
// ExecuteCommitted, when it does nothing around each slot); one that
// decides strictly in order, like tendermint's heights, may Execute
// directly. A ledger lives on its replica's event loop and is not safe
// for concurrent use.
type Ledger struct {
	sm        StateMachine
	onExecute func(Execution)

	committed map[uint64][]*wire.Request // committed slots above lastExec
	lastExec  uint64
	clients   map[uint64]uint64 // client → highest executed seq
	// history is the executed history in the durable snapshot's layout
	// (see appendHistory): one byte slice, so the collector has no
	// pointers to scan in it however long the run. executed counts its
	// entries.
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
		l.history = appendExecution(l.history, &exec)
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
	out, _ := decodeHistory(wire.NewReader(l.history), l.executed)
	return out
}

// SetRecovering marks the start (true) and end (false) of a WAL replay,
// during which executions are not reported to onExecute.
func (l *Ledger) SetRecovering(on bool) { l.recovering = on }

// Recovering reports whether a WAL replay is in progress.
func (l *Ledger) Recovering() bool { return l.recovering }

// checkpoint encodes the checkpoint blob: the client table sorted by
// client, so duplicate suppression survives a restore, then the state
// machine's snapshot. It reports false when the state machine cannot
// snapshot.
func (l *Ledger) checkpoint() ([]byte, bool) {
	snap, ok := l.sm.(Snapshotter)
	if !ok {
		return nil, false
	}
	var b wire.Buffer
	clients := make([]uint64, 0, len(l.clients))
	for c := range l.clients {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	b.PutUint32(uint32(len(clients)))
	for _, c := range clients {
		b.PutUint64(c)
		b.PutUint64(l.clients[c])
	}
	b.PutBytes(snap.Snapshot())
	return b.Bytes(), true
}

// restore installs a checkpoint blob taken after executing slot: state
// machine, client table and cursor. Committed slots the checkpoint
// covers are dropped.
func (l *Ledger) restore(slot uint64, data []byte) error {
	snap, ok := l.sm.(Snapshotter)
	if !ok {
		return fmt.Errorf("xpaxos: state machine %T cannot restore snapshots", l.sm)
	}
	rd := wire.NewReader(data)
	n, err := rd.Uint32()
	if err != nil {
		return fmt.Errorf("xpaxos: corrupt checkpoint: %w", err)
	}
	table := make(map[uint64]uint64, n)
	for i := uint32(0); i < n; i++ {
		c, err := rd.Uint64()
		if err != nil {
			return fmt.Errorf("xpaxos: corrupt checkpoint client: %w", err)
		}
		seq, err := rd.Uint64()
		if err != nil {
			return fmt.Errorf("xpaxos: corrupt checkpoint seq: %w", err)
		}
		table[c] = seq
	}
	smData, err := rd.Bytes()
	if err != nil {
		return fmt.Errorf("xpaxos: corrupt checkpoint snapshot: %w", err)
	}
	if err := snap.Restore(smData); err != nil {
		return err
	}
	l.clients = table
	l.lastExec = slot
	for s := range l.committed {
		if s <= slot {
			delete(l.committed, s)
		}
	}
	return nil
}

// appendHistory appends the history section of XPaxos's durable
// snapshot to dst: a count, then per execution its slot, client, seq,
// operation and result — the layout the history is kept in, so the
// section is one copy.
func (l *Ledger) appendHistory(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, l.executed)
	return append(dst, l.history...)
}

// readHistory replaces the history with the section appendHistory
// wrote at the front of data; bytes after it are ignored.
func (l *Ledger) readHistory(data []byte) error {
	rd := wire.NewReader(data)
	count, err := rd.Uint32()
	if err != nil {
		return fmt.Errorf("xpaxos: durable snapshot executions: %w", err)
	}
	if _, err := decodeHistory(rd, count); err != nil {
		return err
	}
	l.history = bytes.Clone(data[4 : len(data)-rd.Remaining()])
	l.executed = count
	return nil
}

// appendExecution appends e to a history: slot, client and seq as
// big-endian uint64s, then the operation and the result, each prefixed
// by its uint32 length — wire.Buffer's encoding of those fields.
func appendExecution(h []byte, e *Execution) []byte {
	h = binary.BigEndian.AppendUint64(h, e.Slot)
	h = binary.BigEndian.AppendUint64(h, e.Client)
	h = binary.BigEndian.AppendUint64(h, e.Seq)
	h = binary.BigEndian.AppendUint32(h, uint32(len(e.Op)))
	h = append(h, e.Op...)
	h = binary.BigEndian.AppendUint32(h, uint32(len(e.Result)))
	return append(h, e.Result...)
}

// decodeHistory decodes count executions of a history off rd, copying
// each operation and result out of its bytes. An execution takes at
// least 32 bytes, which bounds what a corrupt count can allocate.
func decodeHistory(rd *wire.Reader, count uint32) ([]Execution, error) {
	execs := make([]Execution, 0, min(count, uint32(rd.Remaining()/32)))
	for i := uint32(0); i < count; i++ {
		var e Execution
		var e1, e2, e3, e4, e5 error
		e.Slot, e1 = rd.Uint64()
		e.Client, e2 = rd.Uint64()
		e.Seq, e3 = rd.Uint64()
		e.Op, e4 = rd.Bytes()
		e.Result, e5 = rd.Bytes()
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil || e5 != nil {
			return nil, fmt.Errorf("xpaxos: durable snapshot execution %d corrupt", i)
		}
		execs = append(execs, e)
	}
	return execs, nil
}
