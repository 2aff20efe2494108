package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf encoder for hand-building profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// handProfile builds a gzipped CPU profile with these samples (stacks
// innermost first, values in ns):
//
//	runtime.mallocgc <- dram.(*Channel).tick          300 -> dram
//	dram.tick + inlined sim.helper (one location)     200 -> sim
//	obs/span.(*Recorder).Start <- serve.handler       100 -> obs
//	runtime.gcBgMarkWorker                            250 -> runtime
//	prefetch.(*DMP).Tick                              150 -> other
func handProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",
		"dx100/internal/dram.(*Channel).tick",
		"dx100/internal/sim.helper",
		"dx100/internal/obs/span.(*Recorder).Start",
		"dx100/internal/serve.handler",
		"runtime.gcBgMarkWorker",
		"dx100/internal/prefetch.(*DMP).Tick",
	}
	var p pb
	p = p.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	// Functions 1..7 name strings 5..11.
	for id := uint64(1); id <= 7; id++ {
		p = p.bytes(5, pb(nil).varint(1, id).varint(2, id+4))
	}
	line := func(fn uint64) []byte { return pb(nil).varint(1, fn).varint(2, 10) }
	loc := func(id uint64, fns ...uint64) {
		m := pb(nil).varint(1, id)
		for _, f := range fns {
			m = m.bytes(4, line(f))
		}
		p = p.bytes(4, m)
	}
	loc(1, 1)    // mallocgc
	loc(2, 2)    // dram tick
	loc(3, 3, 2) // sim.helper inlined into dram tick
	loc(4, 4)    // obs/span
	loc(5, 5)    // serve
	loc(6, 6)    // gcBgMarkWorker
	loc(7, 7)    // prefetch
	sample := func(val uint64, locs ...uint64) {
		p = p.bytes(2, pb(nil).bytes(1, packed(locs...)).bytes(2, packed(val/10, val)))
	}
	sample(300, 1, 2)
	sample(200, 3)
	sample(100, 4, 5)
	sample(250, 6)
	sample(150, 7)
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHostSharesHandBuiltProfile(t *testing.T) {
	shares, err := hostShares(handProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dram": 30, "sim": 20, "obs": 10, "runtime": 25, "other": 15}
	var sum float64
	for _, l := range hostLayers {
		got := shares[l]
		sum += got
		if math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("host_share.%s = %g, want %g", l, got, want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g, want 100", sum)
	}
	if len(shares) != len(hostLayers) {
		t.Errorf("%d shares, want one per layer (%d)", len(shares), len(hostLayers))
	}
}

func TestHostSharesRejectsGarbage(t *testing.T) {
	if _, err := hostShares([]byte("not a profile")); err == nil {
		t.Fatal("decoded a non-profile")
	}
}
