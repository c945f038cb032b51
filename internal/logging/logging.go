// Package logging provides a minimal leveled, component-tagged logger
// built only on the standard library. Protocol code logs through a
// Logger interface so simulations can capture, silence, or timestamp
// output with virtual time.
package logging

import (
	"fmt"
	"io"
	"sync"
)

// Level is a log severity. Higher levels are more verbose.
type Level int

// Levels, ordered from quietest to most verbose.
const (
	LevelError Level = iota + 1
	LevelInfo
	LevelDebug
	LevelTrace
)

// String returns the conventional short name of the level.
func (l Level) String() string {
	switch l {
	case LevelError:
		return "ERROR"
	case LevelInfo:
		return "INFO"
	case LevelDebug:
		return "DEBUG"
	case LevelTrace:
		return "TRACE"
	default:
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
}

// Logger is the interface protocol code logs through.
type Logger interface {
	// Logf records a message at the given level. Arguments follow
	// fmt.Sprintf conventions.
	Logf(level Level, format string, args ...any)
}

// Nop is a Logger that discards everything.
var Nop Logger = nopLogger{}

type nopLogger struct{}

func (nopLogger) Logf(Level, string, ...any) {}

// WriterLogger writes formatted lines to an io.Writer, filtering by a
// maximum level. It is safe for concurrent use.
type WriterLogger struct {
	mu     sync.Mutex
	w      io.Writer
	max    Level
	prefix string
}

var _ Logger = (*WriterLogger)(nil)

// NewWriterLogger returns a logger writing lines at or below max to w.
func NewWriterLogger(w io.Writer, max Level) *WriterLogger {
	return &WriterLogger{w: w, max: max}
}

// Logf implements Logger.
func (l *WriterLogger) Logf(level Level, format string, args ...any) {
	if level > l.max {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "%-5s %s", level, l.prefix)
	fmt.Fprintf(l.w, format, args...)
	fmt.Fprintln(l.w)
}

// Tagged returns a Logger that prefixes every line with tag, useful for
// per-process or per-module log streams.
func Tagged(base Logger, tag string) Logger {
	return taggedLogger{base: base, tag: tag}
}

type taggedLogger struct {
	base Logger
	tag  string
}

func (l taggedLogger) Logf(level Level, format string, args ...any) {
	l.base.Logf(level, "["+l.tag+"] "+format, args...)
}
