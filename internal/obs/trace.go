package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// Kind identifies one event type. The set is closed on purpose: a
// fixed enum keeps Event a flat value (no interface, no allocation on
// the emit path) and gives every kind a stable category, name and
// argument schema in the encoders.
type Kind uint8

const (
	// EvDRAMAct is a DRAM row activate. Args: channel, rank,
	// bank_group, bank, row, dram_cycle.
	EvDRAMAct Kind = iota
	// EvDRAMPre is a DRAM precharge. Args as EvDRAMAct.
	EvDRAMPre
	// EvDRAMRead is a read column command. Args as EvDRAMAct.
	EvDRAMRead
	// EvDRAMWrite is a write column command. Args as EvDRAMAct.
	EvDRAMWrite
	// EvDRAMRefresh is an all-bank refresh. Args: channel, dram_cycle.
	EvDRAMRefresh
	// EvCacheFill is a line installed into a cache. Args: line, set.
	EvCacheFill
	// EvCacheEvict is a valid line evicted from a cache. Args: line,
	// set, dirty.
	EvCacheEvict
	// EvDXEnqueue is an instruction entering the DX100 request buffer.
	// Args: op, queue_len (after the enqueue).
	EvDXEnqueue
	// EvDXDrain is an instruction retiring from the DX100 pipeline.
	// Args: op, queue_len (after the drain).
	EvDXDrain
	// EvFastForward is an engine clock jump over provably idle cycles.
	// Cycle is the jump origin; args: to, skipped.
	EvFastForward
	// EvProfCounter is one simprof timeline sample: Src is the probe
	// name and Args[0] holds math.Float64bits of the value. The
	// encoders decode it back to a float — in Chrome trace_event form
	// it becomes a "C" (counter) event, which viewers render as a
	// counter track overlaying the instant/duration events of the same
	// trace.
	EvProfCounter
	// EvSpan is one completed lifecycle span (see internal/obs/span):
	// Src is the span name, Cycle the start timestamp in microseconds,
	// and Args hold [trace_hi, trace_lo, span_id, parent_span_id,
	// dur_us, status]. The Chrome encoder renders it as a complete
	// ("ph":"X") event whose args carry the W3C trace/span ids as hex
	// strings, so Perfetto shows one block per span.
	EvSpan
	// EvSpanBegin opens a long-lived async span (Chrome nestable
	// "ph":"b", matched to its EvSpanEnd by span id). Args as EvSpan
	// with dur_us unused.
	EvSpanBegin
	// EvSpanEnd closes an async span ("ph":"e"). Args as EvSpanBegin.
	EvSpanEnd

	numKinds
)

// kindMeta fixes each kind's category, display name and argument
// schema for the encoders.
var kindMeta = [numKinds]struct {
	cat, name string
	args      []string
}{
	EvDRAMAct:     {"dram", "ACT", []string{"channel", "rank", "bank_group", "bank", "row", "dram_cycle"}},
	EvDRAMPre:     {"dram", "PRE", []string{"channel", "rank", "bank_group", "bank", "row", "dram_cycle"}},
	EvDRAMRead:    {"dram", "RD", []string{"channel", "rank", "bank_group", "bank", "row", "dram_cycle"}},
	EvDRAMWrite:   {"dram", "WR", []string{"channel", "rank", "bank_group", "bank", "row", "dram_cycle"}},
	EvDRAMRefresh: {"dram", "REF", []string{"channel", "dram_cycle"}},
	EvCacheFill:   {"cache", "fill", []string{"line", "set"}},
	EvCacheEvict:  {"cache", "evict", []string{"line", "set", "dirty"}},
	EvDXEnqueue:   {"dx100", "enqueue", []string{"op", "queue_len"}},
	EvDXDrain:     {"dx100", "drain", []string{"op", "queue_len"}},
	EvFastForward: {"engine", "fast_forward", []string{"to", "skipped"}},
	EvProfCounter: {"prof", "counter", []string{"value"}},
	EvSpan:        {"span", "span", []string{"trace_hi", "trace_lo", "span_id", "parent_span_id", "dur_us", "status"}},
	EvSpanBegin:   {"span", "span_begin", []string{"trace_hi", "trace_lo", "span_id", "parent_span_id", "dur_us", "status"}},
	EvSpanEnd:     {"span", "span_end", []string{"trace_hi", "trace_lo", "span_id", "parent_span_id", "dur_us", "status"}},
}

// MaskSpans covers the three lifecycle-span kinds — the span
// recorder's view.
const MaskSpans = Mask(1<<EvSpan | 1<<EvSpanBegin | 1<<EvSpanEnd)

// SpanEvent builds a span record for the given kind (EvSpan,
// EvSpanBegin or EvSpanEnd). name becomes Src; startUS is the span's
// start timestamp in microseconds; the trace and span ids travel
// bit-packed through Args and come back out as hex strings in both
// encoders.
func SpanEvent(kind Kind, startUS uint64, name string, traceHi, traceLo uint64, spanID, parentID uint64, durUS int64, status int64) Event {
	return Event{
		Cycle: startUS,
		Kind:  kind,
		Src:   name,
		Args:  [6]int64{int64(traceHi), int64(traceLo), int64(spanID), int64(parentID), durUS, status},
	}
}

// CounterEvent builds an EvProfCounter sample: name becomes Src, the
// float value is bit-packed into Args[0] (the encoders unpack it).
func CounterEvent(cycle uint64, name string, value float64) Event {
	return Event{
		Cycle: cycle,
		Kind:  EvProfCounter,
		Src:   name,
		Args:  [6]int64{int64(math.Float64bits(value))},
	}
}

// Category returns the kind's category ("dram", "cache", "dx100",
// "engine").
func (k Kind) Category() string { return kindMeta[k].cat }

// String returns the kind's display name ("ACT", "fill", ...).
func (k Kind) String() string { return kindMeta[k].name }

// Mask selects which kinds a sink records; bit i covers Kind(i).
type Mask uint32

// MaskAll records every kind.
const MaskAll = Mask(1<<numKinds - 1)

// MaskDRAM covers the five DRAM command kinds — the protocol checker's
// and the golden-trace test's view.
const MaskDRAM = Mask(1<<EvDRAMAct | 1<<EvDRAMPre | 1<<EvDRAMRead | 1<<EvDRAMWrite | 1<<EvDRAMRefresh)

// Event is one trace record: a flat value so the ring buffer holds
// events without boxing. Args are positional; kindMeta names them.
// Src identifies the emitting component instance (a prefix string the
// component computed once, e.g. "l1d.", "dx100.0.") — assigning it
// copies a string header, never allocates.
type Event struct {
	Cycle uint64
	Kind  Kind
	Src   string
	Args  [6]int64
}

// Sink collects events into a bounded ring that grows on demand up to
// its capacity. Without a spill writer the ring keeps the most recent
// capacity events (older ones are overwritten and counted as dropped).
// With a spill writer the ring becomes a batch buffer: it is encoded
// and flushed whenever full, so nothing is lost. A nil *Sink is the
// disabled state: Emit on a nil receiver returns immediately, which is
// what makes tracing zero-cost when off.
//
// A sink is single-goroutine, like the simulation it observes.
type Sink struct {
	mask    Mask
	ring    []Event
	limit   int // ring capacity; the slice grows by append up to it
	start   int // oldest event's slot, ring mode only
	count   int
	total   uint64
	dropped uint64

	spill       io.Writer
	chrome      bool
	wroteHeader bool
	spilled     uint64
	buf         []byte
	err         error
}

// DefaultSinkCap is the ring capacity when NewSink is given n <= 0.
const DefaultSinkCap = 1 << 16

// NewSink returns a sink recording all kinds into a ring of capacity
// n (DefaultSinkCap when n <= 0). The ring's memory is allocated as
// events arrive, so a sink that records little costs little.
func NewSink(n int) *Sink {
	if n <= 0 {
		n = DefaultSinkCap
	}
	return &Sink{mask: MaskAll, limit: n}
}

// SetMask restricts the sink to the masked kinds.
func (s *Sink) SetMask(m Mask) { s.mask = m }

// SpillJSONL streams overflowing events to w as JSON Lines, one event
// per line. Call Close (or Flush) to drain the tail.
func (s *Sink) SpillJSONL(w io.Writer) {
	s.spill, s.chrome = w, false
}

// SpillChrome streams overflowing events to w in Chrome trace_event
// format (the JSON object chrome://tracing and Perfetto open). One
// simulated cycle is encoded as one microsecond of trace time. Close
// must be called to terminate the JSON document.
func (s *Sink) SpillChrome(w io.Writer) {
	s.spill, s.chrome = w, true
}

// Enabled reports whether the sink records anything; callers on hot
// paths guard event construction with it (or with a plain nil check).
func (s *Sink) Enabled() bool { return s != nil }

// Emit records one event. It is safe to call on a nil sink, which does
// nothing — the disabled state costs one branch.
func (s *Sink) Emit(ev Event) {
	if s == nil || s.mask&(1<<ev.Kind) == 0 {
		return
	}
	s.total++
	if s.spill != nil {
		if len(s.ring) == s.limit {
			s.flushRing()
		}
		s.ring = append(s.ring, ev)
		return
	}
	if len(s.ring) < s.limit {
		s.ring = append(s.ring, ev)
		return
	}
	// Ring full: overwrite the oldest.
	s.ring[s.start] = ev
	s.start = (s.start + 1) % len(s.ring)
	s.dropped++
}

// Total returns how many events passed the mask, including any
// overwritten or already spilled.
func (s *Sink) Total() uint64 {
	if s == nil {
		return 0
	}
	return s.total
}

// Dropped returns how many events were overwritten in ring mode.
func (s *Sink) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped
}

// Events returns the buffered events in chronological order: the whole
// recorded trace in ring mode (minus dropped), the not-yet-flushed tail
// in spill mode.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	out := make([]Event, 0, len(s.ring))
	out = append(out, s.ring[s.start:]...)
	out = append(out, s.ring[:s.start]...)
	return out
}

// Flush spills buffered events to the spill writer, if any.
func (s *Sink) Flush() error {
	if s == nil || s.spill == nil {
		return s.sinkErr()
	}
	s.flushRing()
	return s.sinkErr()
}

// Close flushes and, for Chrome spill, terminates the JSON document.
// The sink must not be used after Close.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	if s.spill != nil {
		s.flushRing()
		if s.chrome {
			if !s.wroteHeader {
				s.write([]byte(chromeHeader))
				s.wroteHeader = true
			}
			s.write([]byte(chromeFooter))
		}
	}
	return s.sinkErr()
}

func (s *Sink) sinkErr() error {
	if s == nil {
		return nil
	}
	return s.err
}

func (s *Sink) write(b []byte) {
	if s.err != nil {
		return
	}
	if _, err := s.spill.Write(b); err != nil {
		s.err = fmt.Errorf("obs: trace spill: %w", err)
	}
}

const chromeHeader = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
const chromeFooter = "\n]}\n"

func (s *Sink) flushRing() {
	for _, ev := range s.ring {
		s.buf = s.buf[:0]
		if s.chrome {
			if s.wroteHeader {
				s.buf = append(s.buf, ",\n"...)
			} else {
				s.buf = append(s.buf, chromeHeader...)
				s.wroteHeader = true
			}
			s.buf = appendChrome(s.buf, ev)
		} else {
			s.buf = appendJSONL(s.buf, ev)
			s.buf = append(s.buf, '\n')
		}
		s.write(s.buf)
		s.spilled++
	}
	s.ring = s.ring[:0]
}

// WriteJSONL encodes the buffered events (see Events) as JSON Lines.
func (s *Sink) WriteJSONL(w io.Writer) error {
	var buf []byte
	for _, ev := range s.Events() {
		buf = appendJSONL(buf[:0], ev)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace encodes the buffered events as a complete Chrome
// trace_event JSON document.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, chromeHeader); err != nil {
		return err
	}
	var buf []byte
	for i, ev := range s.Events() {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = appendChrome(buf, ev)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, chromeFooter)
	return err
}

// appendJSONL renders one event as a single JSON line with a fixed key
// order, so identical traces encode to identical bytes:
//
//	{"cycle":12,"cat":"dram","name":"ACT","src":"dram.","args":{"channel":0,...}}
func appendJSONL(b []byte, ev Event) []byte {
	m := kindMeta[ev.Kind]
	b = append(b, `{"cycle":`...)
	b = strconv.AppendUint(b, ev.Cycle, 10)
	b = append(b, `,"cat":"`...)
	b = append(b, m.cat...)
	b = append(b, `","name":"`...)
	b = append(b, m.name...)
	b = append(b, `","src":`...)
	b = strconv.AppendQuote(b, ev.Src)
	b = append(b, `,"args":{`...)
	if ev.Kind == EvProfCounter {
		// The single arg is a bit-packed float, not an integer.
		b = append(b, `"value":`...)
		b = appendProfValue(b, ev)
		b = append(b, "}}"...)
		return b
	}
	if isSpanKind(ev.Kind) {
		// Trace/span ids are bit-packed; render them as W3C hex strings.
		b = appendSpanArgs(b, ev)
		b = append(b, "}}"...)
		return b
	}
	for i, an := range m.args {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, an...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, ev.Args[i], 10)
	}
	b = append(b, "}}"...)
	return b
}

// appendProfValue decodes an EvProfCounter's bit-packed float and
// renders it as a JSON number (non-finite values cannot arise: the
// sampler's ratio probes define 0/0 as 0).
func appendProfValue(b []byte, ev Event) []byte {
	return strconv.AppendFloat(b, math.Float64frombits(uint64(ev.Args[0])), 'g', -1, 64)
}

// appendChrome renders one event as a Chrome trace_event object.
// DRAM/cache/dx100 events are instants ("ph":"i"); fast-forward jumps
// are complete events ("ph":"X") whose duration is the skipped span,
// which makes idle stretches visible as blocks on the timeline. The
// thread id is the DRAM channel for DRAM commands (one lane per
// channel in the viewer) and 0 otherwise.
func appendChrome(b []byte, ev Event) []byte {
	m := kindMeta[ev.Kind]
	if isSpanKind(ev.Kind) {
		return appendChromeSpan(b, ev)
	}
	if ev.Kind == EvProfCounter {
		// Counter events ("ph":"C") are named by the probe so each one
		// gets its own counter track in the viewer.
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, ev.Src)
		b = append(b, `,"cat":"prof","ph":"C","ts":`...)
		b = strconv.AppendUint(b, ev.Cycle, 10)
		b = append(b, `,"pid":0,"args":{"value":`...)
		b = appendProfValue(b, ev)
		b = append(b, "}}"...)
		return b
	}
	tid := int64(0)
	if ev.Kind <= EvDRAMRefresh {
		tid = ev.Args[0]
	}
	b = append(b, `{"name":"`...)
	b = append(b, m.name...)
	b = append(b, `","cat":"`...)
	b = append(b, m.cat...)
	b = append(b, '"')
	if ev.Kind == EvFastForward {
		b = append(b, `,"ph":"X","dur":`...)
		b = strconv.AppendInt(b, ev.Args[1], 10)
	} else {
		b = append(b, `,"ph":"i","s":"g"`...)
	}
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ev.Cycle, 10)
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	b = append(b, `,"args":{"src":`...)
	b = strconv.AppendQuote(b, ev.Src)
	for i, an := range m.args {
		b = append(b, `,"`...)
		b = append(b, an...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, ev.Args[i], 10)
	}
	b = append(b, "}}"...)
	return b
}

func isSpanKind(k Kind) bool { return k == EvSpan || k == EvSpanBegin || k == EvSpanEnd }

// appendHex appends v as exactly 2*n lowercase hex digits (the W3C
// traceparent field encoding; n is the id width in bytes).
func appendHex(b []byte, v uint64, n int) []byte {
	const digits = "0123456789abcdef"
	for i := n*8 - 4; i >= 0; i -= 4 {
		b = append(b, digits[(v>>uint(i))&0xf])
	}
	return b
}

// appendSpanArgs renders a span event's identifiers and status as the
// shared args body of both encoders.
func appendSpanArgs(b []byte, ev Event) []byte {
	b = append(b, `"trace_id":"`...)
	b = appendHex(b, uint64(ev.Args[0]), 8)
	b = appendHex(b, uint64(ev.Args[1]), 8)
	b = append(b, `","span_id":"`...)
	b = appendHex(b, uint64(ev.Args[2]), 8)
	b = append(b, '"')
	if ev.Args[3] != 0 {
		b = append(b, `,"parent_span_id":"`...)
		b = appendHex(b, uint64(ev.Args[3]), 8)
		b = append(b, '"')
	}
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, ev.Args[5], 10)
	return b
}

// appendChromeSpan renders a span event as a Chrome trace_event
// object: EvSpan becomes a complete event ("ph":"X") with its duration,
// EvSpanBegin/EvSpanEnd become nestable async events ("b"/"e") matched
// by span id. Each trace gets its own lane: the thread id is the low
// half of the trace id, so concurrent requests do not interleave on
// one track.
func appendChromeSpan(b []byte, ev Event) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, ev.Src)
	b = append(b, `,"cat":"span"`...)
	switch ev.Kind {
	case EvSpan:
		b = append(b, `,"ph":"X","dur":`...)
		b = strconv.AppendInt(b, ev.Args[4], 10)
	case EvSpanBegin:
		b = append(b, `,"ph":"b","id":"0x`...)
		b = appendHex(b, uint64(ev.Args[2]), 8)
		b = append(b, '"')
	case EvSpanEnd:
		b = append(b, `,"ph":"e","id":"0x`...)
		b = appendHex(b, uint64(ev.Args[2]), 8)
		b = append(b, '"')
	}
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ev.Cycle, 10)
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendUint(b, uint64(uint32(uint64(ev.Args[1]))), 10)
	b = append(b, `,"args":{`...)
	b = appendSpanArgs(b, ev)
	b = append(b, "}}"...)
	return b
}
