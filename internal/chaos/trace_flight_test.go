package chaos

import (
	"bytes"
	"encoding/json"
	"testing"

	"quorumselect/internal/ids"
	"quorumselect/internal/xpaxos"
)

// TestFlightRecorderDeterministic is the flight-recorder acceptance
// bar: replaying one seed must reproduce the BYTE-IDENTICAL flight
// dump — span IDs are node-prefixed sequence numbers and all clocks
// are virtual, so nothing nondeterministic can leak into the JSON.
func TestFlightRecorderDeterministic(t *testing.T) {
	for _, protocol := range []Protocol{ProtocolXPaxos, ProtocolQS} {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Protocol: protocol}
			d1, f1, _ := ReplayDump(cfg, 3)
			d2, f2, _ := ReplayDump(cfg, 3)
			if d1 != d2 {
				t.Fatal("same seed produced different text dumps")
			}
			if !bytes.Equal(f1, f2) {
				t.Fatalf("same seed produced different flight dumps (%d vs %d bytes)", len(f1), len(f2))
			}
			if len(f1) == 0 {
				t.Fatal("replay produced no flight dump")
			}
		})
	}
}

// TestFlightRecorderContents checks the dump is a well-formed snapshot:
// parseable JSON with a replay-identifying reason, spans from the run,
// and the protocol event ring alongside them.
func TestFlightRecorderContents(t *testing.T) {
	_, flight, _ := ReplayDump(Config{Protocol: ProtocolXPaxos}, 3)
	var d struct {
		Reason  string `json:"reason"`
		Dropped uint64 `json:"dropped"`
		Spans   []struct {
			Trace uint64 `json:"trace"`
			ID    uint64 `json:"id"`
			Node  uint64 `json:"node"`
			Name  string `json:"name"`
		} `json:"spans"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(flight, &d); err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	if d.Reason != "chaos replay seed=3" {
		t.Errorf("reason = %q", d.Reason)
	}
	if len(d.Spans) == 0 || len(d.Events) == 0 {
		t.Fatalf("flight dump is hollow: %d spans, %d events", len(d.Spans), len(d.Events))
	}
	names := make(map[string]bool)
	for _, s := range d.Spans {
		if s.ID == 0 || s.Trace == 0 {
			t.Fatalf("span with zero identity: %+v", s)
		}
		names[s.Name] = true
	}
	// The commit path's stages must all appear in a 28-virtual-second
	// xpaxos run.
	for _, want := range []string{"ingress", "propose", "accept", "quorum", "execute"} {
		if !names[want] {
			t.Errorf("flight dump records no %q span (got %v)", want, names)
		}
	}
}

// TestViolationCarriesFlightDump: when the harness detects a
// violation, the attached flight dump must equal the one a replay of
// the same seed captures — the artifact CI uploads is exactly what a
// developer reproduces locally.
func TestViolationCarriesFlightDump(t *testing.T) {
	cfg := Config{
		Protocol:  ProtocolXPaxos,
		Seeds:     50,
		FirstSeed: 1,
		TamperHistory: func(p ids.ProcessID, h []xpaxos.Execution) []xpaxos.Execution {
			if p != 2 || len(h) == 0 {
				return h
			}
			out := append([]xpaxos.Execution(nil), h...)
			out[0].Result = []byte("tampered")
			return out
		},
	}
	res := Run(cfg)
	if res.Violation == nil {
		t.Fatal("expected a violation")
	}
	if len(res.Violation.Flight) == 0 {
		t.Fatal("violation carries no flight dump")
	}
	var d struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(res.Violation.Flight, &d); err != nil {
		t.Fatalf("violation flight dump does not parse: %v", err)
	}
	if d.Reason == "" {
		t.Error("violation flight dump has no reason")
	}
}
