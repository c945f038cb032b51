// Package xpaxos implements the XPaxos state-machine replication
// protocol (Liu et al., OSDI'16) as described and extended in §V of the
// paper: the PREPARE/COMMIT normal case over an active quorum of n−f
// processes, the failure-detector integration with its three
// subtleties (Fig 3), equivocation detection, and quorum installation
// via view change (§V-B).
//
// The constructor picks one of two quorum-change regimes:
//
//   - NewQSNode composes the replica with the paper's Quorum Selection
//     module, which installs views: on ⟨QUORUM, Q⟩ all quorums
//     enumerated before Q are skipped.
//   - NewStandaloneNode builds the original XPaxos behavior, with no
//     selection module: on any suspicion of an active-quorum member,
//     move to the next quorum in the lexicographic enumeration of the
//     minimal quorums (all C(n, q) of them under the threshold system),
//     round-robin. This is the baseline experiment E5 measures against.
//
// The view change itself is deliberately simpler than XPaxos's full
// XFT view change (which handles partial synchrony edge cases the
// paper does not exercise): replicas send their accepted PREPAREs to
// the incoming leader, which merges by highest view per slot,
// re-proposes, and installs. DESIGN.md records this substitution.
package xpaxos

import (
	"fmt"
	"sort"
	"strings"

	"quorumselect/internal/wire"
)

// StateMachine is the replicated application: Apply must be
// deterministic.
type StateMachine interface {
	// Apply executes one operation and returns its result.
	Apply(op []byte) []byte
}

// Snapshotter is optionally implemented by state machines that support
// checkpoint-based catch-up: Snapshot must be deterministic (identical
// state → identical bytes) so checkpoint digests can be compared across
// replicas.
type Snapshotter interface {
	// Snapshot serializes the full state.
	Snapshot() []byte
	// Restore replaces the state with a previous Snapshot.
	Restore(snapshot []byte) error
}

// KVMachine is a deterministic key-value store used by the examples and
// tests. Operations are "set k v", "get k", "del k" and "append k v";
// anything else echoes.
type KVMachine struct {
	data map[string]string
}

var (
	_ StateMachine = (*KVMachine)(nil)
	_ Snapshotter  = (*KVMachine)(nil)
)

// NewKVMachine returns an empty store.
func NewKVMachine() *KVMachine { return &KVMachine{data: make(map[string]string)} }

// Apply implements StateMachine.
func (kv *KVMachine) Apply(op []byte) []byte {
	parts := strings.SplitN(string(op), " ", 3)
	switch {
	case len(parts) == 3 && parts[0] == "set":
		kv.data[parts[1]] = parts[2]
		return []byte("OK")
	case len(parts) == 3 && parts[0] == "append":
		kv.data[parts[1]] += parts[2]
		return []byte("OK")
	case len(parts) == 2 && parts[0] == "get":
		v, ok := kv.data[parts[1]]
		if !ok {
			return []byte("NIL")
		}
		return []byte(v)
	case len(parts) == 2 && parts[0] == "del":
		delete(kv.data, parts[1])
		return []byte("OK")
	default:
		return append([]byte("ECHO "), op...)
	}
}

// kvSnapshot is a KVMachine snapshot: its entries in key order, each
// key and value behind its length — deterministic for identical state.
type kvSnapshot []kvEntry

type kvEntry struct{ key, value string }

func (s *kvSnapshot) layout(c *wire.Codec) {
	for i := range wire.Elems(c, (*[]kvEntry)(s), 8) {
		c.Str(&(*s)[i].key)
		c.Str(&(*s)[i].value)
	}
}

// Snapshot implements Snapshotter.
func (kv *KVMachine) Snapshot() []byte {
	s := make(kvSnapshot, 0, len(kv.data))
	for k, v := range kv.data {
		s = append(s, kvEntry{k, v})
	}
	sort.Slice(s, func(i, j int) bool { return s[i].key < s[j].key })
	c := wire.NewEncoder(nil)
	s.layout(c)
	return c.Encoded()
}

// Restore implements Snapshotter.
func (kv *KVMachine) Restore(snapshot []byte) error {
	var s kvSnapshot
	c := wire.NewDecoder(snapshot)
	s.layout(c)
	if err := c.Decoded(); err != nil {
		return fmt.Errorf("xpaxos: corrupt snapshot: %w", err)
	}
	kv.data = make(map[string]string, len(s))
	for _, e := range s {
		kv.data[e.key] = e.value
	}
	return nil
}

// Len returns the number of keys, for test assertions.
func (kv *KVMachine) Len() int { return len(kv.data) }

// Get reads a key directly (bypassing the log), for test assertions.
func (kv *KVMachine) Get(key string) (string, bool) {
	v, ok := kv.data[key]
	return v, ok
}

// EchoMachine returns its input; the cheapest deterministic state
// machine, used by benchmarks.
type EchoMachine struct{}

var _ StateMachine = EchoMachine{}

// Apply implements StateMachine.
func (EchoMachine) Apply(op []byte) []byte { return op }

// Execution records one executed request, observed by tests and
// experiment harnesses in place of a remote client.
type Execution struct {
	Slot   uint64
	Client uint64
	Seq    uint64
	Op     []byte
	Result []byte
}

// layout is an execution's encoding in the ledger's history: slot,
// client and seq, then the operation and the result behind their
// lengths.
func (e *Execution) layout(c *wire.Codec) {
	c.U64(&e.Slot)
	c.U64(&e.Client)
	c.U64(&e.Seq)
	c.Bytes(&e.Op)
	c.Bytes(&e.Result)
}

// String renders the execution compactly.
func (e Execution) String() string {
	return fmt.Sprintf("slot=%d client=%d seq=%d op=%q", e.Slot, e.Client, e.Seq, e.Op)
}
