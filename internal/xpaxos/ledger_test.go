package xpaxos

import (
	"strings"
	"testing"

	"quorumselect/internal/wire"
)

func request(client, seq uint64, op string) *wire.Request {
	return &wire.Request{Client: client, Seq: seq, Op: []byte(op)}
}

func batch(reqs ...*wire.Request) []*wire.Request { return reqs }

func TestLedgerExecutesInSlotOrder(t *testing.T) {
	kv := NewKVMachine()
	l := NewLedger(kv, nil)
	l.Commit(2, batch(request(1, 2, "append k b")))
	l.ExecuteCommitted()
	if l.LastExecuted() != 0 || len(l.Executions()) != 0 {
		t.Fatalf("slot 2 ran before slot 1: cursor %d, history %v", l.LastExecuted(), l.Executions())
	}
	if !l.Committed(2) || l.Committed(1) {
		t.Fatalf("Committed(1)=%v Committed(2)=%v, want false, true", l.Committed(1), l.Committed(2))
	}
	l.Commit(1, batch(request(1, 1, "set k a")))
	l.ExecuteCommitted()
	h := l.Executions()
	if l.LastExecuted() != 2 || len(h) != 2 || h[0].Slot != 1 || h[1].Slot != 2 {
		t.Fatalf("cursor %d, history %v; want slots 1 then 2", l.LastExecuted(), h)
	}
	if v, _ := kv.Get("k"); v != "ab" {
		t.Errorf("k = %q, want ab (slot 1 applied first)", v)
	}
	if !l.Committed(1) {
		t.Error("an executed slot no longer reports committed")
	}
	l.Commit(2, batch(request(1, 3, "set k late"))) // a re-commit of an executed slot
	if _, _, ok := l.Next(); ok {
		t.Error("a slot at or below the cursor was committed again")
	}
}

func TestLedgerSkipsExecutedRequests(t *testing.T) {
	kv := NewKVMachine()
	var seen []Execution
	l := NewLedger(kv, func(e Execution) { seen = append(seen, e) })
	a := request(7, 1, "append k x")
	if ran := l.Execute(1, batch(a, request(8, 1, "append k y"))); ran != 2 {
		t.Fatalf("slot 1 ran %d requests, want 2", ran)
	}
	l.Execute(2, batch(request(8, 2, "append k z")))
	// A second slot holding a, and client 8's seq 1 after its seq 2 ran.
	if ran := l.Execute(3, batch(a, request(8, 1, "append k w"))); ran != 0 {
		t.Fatalf("slot 3 ran %d duplicates, want 0", ran)
	}
	if v, _ := kv.Get("k"); v != "xyz" {
		t.Errorf("k = %q, want xyz", v)
	}
	if h := l.Executions(); len(h) != 3 || len(seen) != 3 {
		t.Errorf("history %v, %d callbacks; want 3 of each", h, len(seen))
	}
	if l.LastExecuted() != 3 {
		t.Errorf("cursor %d, want 3: a slot of duplicates still advances it", l.LastExecuted())
	}
	if !l.Executed(a) || l.Executed(request(7, 2, "")) {
		t.Error("Executed disagrees with the client table")
	}
}

func TestLedgerReplayIsSilent(t *testing.T) {
	calls := 0
	l := NewLedger(EchoMachine{}, func(Execution) { calls++ })
	l.SetRecovering(true)
	l.Commit(1, batch(request(1, 1, "a")))
	l.ExecuteCommitted()
	l.SetRecovering(false)
	if calls != 0 || len(l.Executions()) != 1 {
		t.Fatalf("replay: %d callbacks, %d executions; want 0 and 1", calls, len(l.Executions()))
	}
	l.Execute(2, batch(request(1, 2, "b")))
	if calls != 1 {
		t.Errorf("after replay: %d callbacks, want 1", calls)
	}
}

func TestLedgerCheckpointRestore(t *testing.T) {
	src := NewLedger(NewKVMachine(), nil)
	src.Execute(1, batch(request(9, 4, "set a 1"), request(3, 2, "set b 2")))
	blob, ok := src.checkpoint()
	if !ok {
		t.Fatal("a KVMachine ledger took no checkpoint")
	}
	kv := NewKVMachine()
	dst := NewLedger(kv, nil)
	dst.Commit(1, batch(request(5, 1, "set stale 1"))) // covered by the checkpoint
	dst.Commit(3, batch(request(5, 1, "set c 3")))
	if err := dst.restore(1, blob); err != nil {
		t.Fatal(err)
	}
	if dst.LastExecuted() != 1 || len(dst.committed) != 1 {
		t.Fatalf("cursor %d with %d committed slots, want 1 and 1", dst.LastExecuted(), len(dst.committed))
	}
	if !dst.Executed(request(9, 4, "")) || !dst.Executed(request(3, 2, "")) || dst.Executed(request(3, 3, "")) {
		t.Error("the client table was not installed")
	}
	dst.Commit(2, batch(request(9, 4, "set a dup")))
	dst.ExecuteCommitted()
	h := dst.Executions()
	if dst.LastExecuted() != 3 || len(h) != 1 || h[0].Slot != 3 {
		t.Fatalf("cursor %d, history %v; want 3 and slot 3 alone", dst.LastExecuted(), h)
	}
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		if v, _ := kv.Get(k); v != want {
			t.Errorf("%s = %q, want %q", k, v, want)
		}
	}
}

func TestLedgerRestoreRejectsCorrupt(t *testing.T) {
	encode := func(put func(*wire.Buffer)) []byte {
		var b wire.Buffer
		put(&b)
		return b.Bytes()
	}
	header := func(b *wire.Buffer) { b.PutUint32(1); b.PutUint64(9); b.PutUint64(4) }
	good, _ := NewLedger(NewKVMachine(), nil).checkpoint()
	cases := []struct {
		name string
		sm   StateMachine
		data []byte
		want string
	}{
		{"no snapshotter", EchoMachine{}, good, "xpaxos: state machine xpaxos.EchoMachine cannot restore snapshots"},
		{"empty", NewKVMachine(), nil, "xpaxos: corrupt checkpoint: "},
		{"client cut", NewKVMachine(), encode(func(b *wire.Buffer) { b.PutUint32(1) }), "xpaxos: corrupt checkpoint client: "},
		{"seq cut", NewKVMachine(), encode(func(b *wire.Buffer) { b.PutUint32(1); b.PutUint64(9) }), "xpaxos: corrupt checkpoint seq: "},
		{"snapshot missing", NewKVMachine(), encode(header), "xpaxos: corrupt checkpoint snapshot: "},
		{"snapshot corrupt", NewKVMachine(), encode(func(b *wire.Buffer) { header(b); b.PutBytes([]byte{1, 2, 3}) }), "xpaxos: corrupt snapshot: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLedger(tc.sm, nil)
			l.Execute(1, batch(request(1, 1, "set x 1")))
			err := l.restore(9, tc.data)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want prefix %q", err, tc.want)
			}
			if l.LastExecuted() != 1 || !l.Executed(request(1, 1, "")) || l.Executed(request(9, 4, "")) {
				t.Error("a rejected restore changed the ledger")
			}
		})
	}
}

// TestLedgerExecuteAllocations: executing a one-request slot allocates
// only the history's copy of the operation; a skipped duplicate
// allocates nothing.
func TestLedgerExecuteAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are unreliable under -race")
	}
	const runs = 1000
	l := NewLedger(EchoMachine{}, nil)
	l.history = make([]Execution, 0, runs+1) // history growth is amortized
	req := &wire.Request{Client: 1, Op: []byte("set k v")}
	reqs := batch(req)
	if got := testing.AllocsPerRun(runs, func() {
		req.Seq++
		l.Execute(l.LastExecuted()+1, reqs)
	}); got > 1 {
		t.Errorf("Execute allocated %v times per request, want at most 1", got)
	}
	if got := testing.AllocsPerRun(runs, func() { l.Execute(l.LastExecuted()+1, reqs) }); got != 0 {
		t.Errorf("a skipped duplicate allocated %v times, want 0", got)
	}
}
