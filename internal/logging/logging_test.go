package logging

import (
	"strings"
	"testing"
)

func TestWriterLoggerLevels(t *testing.T) {
	var buf strings.Builder
	l := NewWriterLogger(&buf, LevelInfo)
	l.Logf(LevelError, "boom %d", 1)
	l.Logf(LevelInfo, "hello")
	l.Logf(LevelDebug, "hidden")
	out := buf.String()
	if !strings.Contains(out, "boom 1") || !strings.Contains(out, "hello") {
		t.Errorf("missing expected lines: %q", out)
	}
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line leaked through info level: %q", out)
	}
	if !strings.Contains(out, "ERROR") || !strings.Contains(out, "INFO") {
		t.Errorf("level names missing: %q", out)
	}
}

func TestTagged(t *testing.T) {
	rec := NewRecorder(nil, LevelDebug)
	l := Tagged(rec, "p3")
	l.Logf(LevelInfo, "msg %s", "x")
	events := rec.Events(Filter{})
	if len(events) != 1 || !strings.Contains(events[0].Message, "[p3] msg x") {
		t.Errorf("events = %v", events)
	}
}

func TestCaptureFiltersAndCopies(t *testing.T) {
	rec := NewRecorder(nil, LevelInfo)
	rec.Logf(LevelTrace, "nope")
	rec.Logf(LevelError, "yes")
	snap := rec.Events(Filter{})
	if len(snap) != 1 || snap[0].Message != "yes" {
		t.Fatalf("events = %v", snap)
	}
	snap[0].Message = "mutated"
	if rec.Events(Filter{})[0].Message != "yes" {
		t.Error("Events shares storage")
	}
}

func TestNopDiscards(t *testing.T) {
	// Must simply not panic.
	Nop.Logf(LevelError, "discarded %d", 42)
}

func TestLevelString(t *testing.T) {
	tests := map[Level]string{
		LevelError: "ERROR",
		LevelInfo:  "INFO",
		LevelDebug: "DEBUG",
		LevelTrace: "TRACE",
		Level(99):  "LEVEL(99)",
	}
	for lvl, want := range tests {
		if got := lvl.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", lvl, got, want)
		}
	}
}
