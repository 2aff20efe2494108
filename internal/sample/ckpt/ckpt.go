// Package ckpt is the checkpoint wire format: a versioned,
// deterministic binary container for simulator state snapshots.
//
// A checkpoint is a sequence of named sections, one per simulator
// component, framed as
//
//	magic "DXCK" | u16 version | u32 nsections
//	  { u16 len | name | u32 len | payload } x nsections
//	u32 CRC-32 (IEEE) over everything before it
//
// All integers are little-endian. Section payloads are produced by the
// components themselves through the Writer/Reader primitives, so the
// container stays ignorant of component internals; the section names
// pin the component order, and Unmarshal is strict about both names
// and order — a checkpoint taken on one machine topology refuses to
// load into another.
//
// The format is deliberately not self-describing beyond section names:
// determinism (same state => same bytes) matters more than
// evolvability, and the version number makes stale checkpoints fail
// loudly instead of silently misloading.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the current checkpoint format version. Bump it whenever
// any component's section layout changes; old checkpoints then fail
// with ErrVersion instead of decoding garbage.
const Version uint16 = 2

var magic = [4]byte{'D', 'X', 'C', 'K'}

// ErrVersion reports a version mismatch between the checkpoint file
// and this build.
var ErrVersion = errors.New("ckpt: checkpoint version mismatch")

// ErrCorrupt reports a malformed or truncated checkpoint.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Checkpointable is implemented by simulator components that can
// serialize their state into a checkpoint section and restore it.
// Save must refuse (with an error) when the component is not
// quiescent — in-flight MSHRs, queued DRAM requests, un-drained
// pipeline windows — because a checkpoint only captures state that is
// fully resident in the component.
type Checkpointable interface {
	CheckpointSave(w *Writer) error
	CheckpointLoad(r *Reader) error
}

// Part names one component's section in a checkpoint.
type Part struct {
	Name string
	C    Checkpointable
}

// Writer encodes primitives into a section payload. All encodings are
// fixed-width little-endian, so equal state always produces equal
// bytes.
type Writer struct {
	b []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.b }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.b = append(w.b, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// I64 appends an int64 (two's-complement, little-endian).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// Bytes64 appends a length-prefixed byte slice.
func (w *Writer) Bytes64(b []byte) {
	w.U64(uint64(len(b)))
	w.b = append(w.b, b...)
}

// Reader decodes a section payload. Errors are sticky: after the
// first decode failure every subsequent read returns zero values, and
// Err reports the failure — component Load methods can decode
// straight through and check once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps payload bytes.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated section (offset %d of %d)", ErrCorrupt, r.off, len(r.b))
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Done reports whether the payload was consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, len(r.b)-r.off)
	}
	return nil
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64-encoded int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	return string(r.take(int(n)))
}

// Bytes64 reads a length-prefixed byte slice (copied).
func (r *Reader) Bytes64() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return nil
	}
	return append([]byte(nil), r.take(int(n))...)
}

// Section is one named component payload inside a checkpoint.
type Section struct {
	Name string
	Data []byte
}

// Encode frames sections into a complete checkpoint image at the
// current Version.
func Encode(sections []Section) []byte {
	var w Writer
	w.b = append(w.b, magic[:]...)
	w.U16(Version)
	w.U32(uint32(len(sections)))
	for _, s := range sections {
		w.U16(uint16(len(s.Name)))
		w.b = append(w.b, s.Name...)
		w.U32(uint32(len(s.Data)))
		w.b = append(w.b, s.Data...)
	}
	w.U32(crc32.ChecksumIEEE(w.b))
	return w.b
}

// Decode verifies the container framing (magic, version, CRC) and
// returns the sections. The section payloads alias data.
func Decode(data []byte) ([]Section, error) {
	if len(data) < len(magic)+2+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the smallest checkpoint", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x)", ErrCorrupt, got, want)
	}
	r := NewReader(body)
	var m [4]byte
	copy(m[:], r.take(4))
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m[:])
	}
	if v := r.U16(); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads version %d", ErrVersion, v, Version)
	}
	n := r.U32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if uint64(n) > uint64(len(body)) {
		return nil, fmt.Errorf("%w: impossible section count %d", ErrCorrupt, n)
	}
	sections := make([]Section, 0, n)
	for i := uint32(0); i < n; i++ {
		nameLen := r.U16()
		name := string(r.take(int(nameLen)))
		dataLen := r.U32()
		payload := r.take(int(dataLen))
		if r.Err() != nil {
			return nil, r.Err()
		}
		sections = append(sections, Section{Name: name, Data: payload})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return sections, nil
}

// Marshal saves every part into a checkpoint image. Part order is the
// on-wire order, so callers must enumerate components
// deterministically.
func Marshal(parts []Part) ([]byte, error) {
	sections := make([]Section, 0, len(parts))
	for _, p := range parts {
		var w Writer
		if err := p.C.CheckpointSave(&w); err != nil {
			return nil, fmt.Errorf("ckpt: save %q: %w", p.Name, err)
		}
		sections = append(sections, Section{Name: p.Name, Data: w.Bytes()})
	}
	return Encode(sections), nil
}

// Unmarshal restores every part from a checkpoint image. It is
// strict: the checkpoint must contain exactly the given parts, by
// name, in order — a mismatch means the checkpoint was taken on a
// differently-shaped system.
func Unmarshal(data []byte, parts []Part) error {
	sections, err := Decode(data)
	if err != nil {
		return err
	}
	if len(sections) != len(parts) {
		return fmt.Errorf("%w: checkpoint has %d sections, system has %d components", ErrCorrupt, len(sections), len(parts))
	}
	for i, p := range parts {
		if sections[i].Name != p.Name {
			return fmt.Errorf("%w: section %d is %q, expected %q", ErrCorrupt, i, sections[i].Name, p.Name)
		}
		r := NewReader(sections[i].Data)
		if err := p.C.CheckpointLoad(r); err != nil {
			return fmt.Errorf("ckpt: load %q: %w", p.Name, err)
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("ckpt: load %q: %w", p.Name, err)
		}
	}
	return nil
}
