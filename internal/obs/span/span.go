// Package span implements the lightweight lifecycle-span model behind
// dx100d's request tracing: W3C trace-context identifiers (TraceID,
// SpanID, traceparent parse/format for cross-daemon propagation once
// the fleet exists), and a Recorder that emits finished spans into the
// obs event sink as EvSpan/EvSpanBegin/EvSpanEnd records. The sink's
// Chrome encoder renders them as complete and nestable-async
// trace_event objects, so a recorded trace loads directly in Perfetto
// or chrome://tracing.
//
// The model is deliberately tiny — no baggage, no attributes, no
// samplers. A span is a name, a start time, a duration, a status code
// and its place in the trace tree; everything else the daemon needs
// (route, job id) goes in the span name or the correlated slog lines.
//
// Like the rest of the obs layer, disabled tracing is free: a nil
// *Recorder starts nil *Spans, and every method on both is nil-safe
// and allocation-free (TestNilRecorderZeroAllocs pins this).
package span

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// TraceID identifies one end-to-end request across every daemon that
// touches it (16 bytes, per W3C trace-context).
type TraceID [16]byte

// SpanID identifies one operation within a trace (8 bytes).
type SpanID [8]byte

// IsZero reports the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// hi and lo split a TraceID into the two uint64 halves the flat obs
// event args carry.
func (t TraceID) hi() uint64 { return binary.BigEndian.Uint64(t[:8]) }
func (t TraceID) lo() uint64 { return binary.BigEndian.Uint64(t[8:]) }

func (s SpanID) bits() uint64 { return binary.BigEndian.Uint64(s[:]) }

// Context is a span's position in its trace: which trace, which span,
// and the W3C trace flags (bit 0 = sampled).
type Context struct {
	Trace TraceID
	Span  SpanID
	Flags byte
}

// Valid reports whether the context names a real span: both ids
// non-zero, as the traceparent spec requires.
func (c Context) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// Traceparent renders the context in W3C traceparent form:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
func (c Context) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = appendHexBytes(b, c.Trace[:])
	b = append(b, '-')
	b = appendHexBytes(b, c.Span[:])
	b = append(b, '-')
	b = appendHexBytes(b, []byte{c.Flags})
	return string(b)
}

func appendHexBytes(b, src []byte) []byte {
	const digits = "0123456789abcdef"
	for _, v := range src {
		b = append(b, digits[v>>4], digits[v&0xf])
	}
	return b
}

// ParseTraceparent parses a W3C traceparent header. It enforces the
// spec strictly for version 00 (exact length, lowercase hex, non-zero
// trace and span ids, version ff forbidden) and applies the mandated
// forward-compatibility rule for higher versions: parse the leading
// version-00 fields and require the extra data to be '-'-separated.
func ParseTraceparent(h string) (Context, error) {
	if len(h) < 55 {
		return Context{}, fmt.Errorf("span: traceparent too short (%d bytes, need 55)", len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return Context{}, fmt.Errorf("span: traceparent field delimiters misplaced in %q", h)
	}
	ver, ok := hexField(h[0:2])
	if !ok {
		return Context{}, fmt.Errorf("span: traceparent version %q is not hex", h[0:2])
	}
	version := ver[0]
	if version == 0xff {
		return Context{}, fmt.Errorf("span: traceparent version ff is forbidden")
	}
	if version == 0 && len(h) != 55 {
		return Context{}, fmt.Errorf("span: version-00 traceparent must be exactly 55 bytes, got %d", len(h))
	}
	if version > 0 && len(h) > 55 && h[55] != '-' {
		return Context{}, fmt.Errorf("span: traceparent trailing data must be '-'-separated")
	}
	tr, ok := hexField(h[3:35])
	if !ok {
		return Context{}, fmt.Errorf("span: trace id %q is not lowercase hex", h[3:35])
	}
	sp, ok := hexField(h[36:52])
	if !ok {
		return Context{}, fmt.Errorf("span: span id %q is not lowercase hex", h[36:52])
	}
	fl, ok := hexField(h[53:55])
	if !ok {
		return Context{}, fmt.Errorf("span: trace flags %q are not hex", h[53:55])
	}
	var c Context
	copy(c.Trace[:], tr)
	copy(c.Span[:], sp)
	c.Flags = fl[0]
	if c.Trace.IsZero() {
		return Context{}, fmt.Errorf("span: all-zero trace id is invalid")
	}
	if c.Span.IsZero() {
		return Context{}, fmt.Errorf("span: all-zero span id is invalid")
	}
	return c, nil
}

// hexField decodes an even-length lowercase-hex string; ok is false on
// any character outside [0-9a-f] (the W3C grammar forbids uppercase).
func hexField(s string) ([]byte, bool) {
	out := make([]byte, len(s)/2)
	for i := 0; i < len(s); i++ {
		var v byte
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			v = c - '0'
		case c >= 'a' && c <= 'f':
			v = c - 'a' + 10
		default:
			return nil, false
		}
		if i%2 == 0 {
			out[i/2] = v << 4
		} else {
			out[i/2] |= v
		}
	}
	return out, true
}

// Id generation: crypto-strength when the platform provides it, with a
// time-seeded fallback so tracing never fails a request. Both paths
// reject the all-zero ids the wire format forbids.
var fallback struct {
	sync.Mutex
	rng *rand.Rand
}

func randomID(b []byte) {
	if _, err := crand.Read(b); err == nil {
		for _, v := range b {
			if v != 0 {
				return
			}
		}
	}
	fallback.Lock()
	if fallback.rng == nil {
		fallback.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	for {
		fallback.rng.Read(b)
		for _, v := range b {
			if v != 0 {
				fallback.Unlock()
				return
			}
		}
	}
}

// Child returns the trace position of a new span under parent: a fresh
// span id in parent's trace, or a fresh trace when parent is invalid.
// A Recorder places every span it starts with it; a caller that needs
// only a span's context, not its record, calls it directly.
func Child(parent Context) Context {
	if parent.Valid() {
		return Context{Trace: parent.Trace, Span: NewSpanID(), Flags: parent.Flags | 1}
	}
	return Context{Trace: NewTraceID(), Span: NewSpanID(), Flags: 1}
}

// NewTraceID returns a fresh random trace id.
func NewTraceID() TraceID {
	var t TraceID
	randomID(t[:])
	return t
}

// NewSpanID returns a fresh random span id.
func NewSpanID() SpanID {
	var s SpanID
	randomID(s[:])
	return s
}
