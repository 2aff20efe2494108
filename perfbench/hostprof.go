package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostLayers are the buckets host_share.* folds CPU samples into: the
// repository's modules by package, "runtime" for samples with no module
// frame, and "other" for module packages outside this list.
var hostLayers = []string{
	"sim", "dram", "cache", "cpu", "dx100", "loopir", "memspace", "obs",
	"exp", "sample", "serve", "workloads", "runtime", "other",
}

const modulePrefix = "dx100/internal/"

// hostShares decodes a runtime/pprof CPU profile and folds it into
// host_share percentages that sum to 100.
func hostShares(raw []byte) (map[string]float64, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	return foldProfile(p), nil
}

// profSample is one CPU sample: its stack as function names, innermost
// first (inlined frames expanded), and its CPU time.
type profSample struct {
	Stack []string
	Value int64
}

// foldProfile charges each sample to the innermost frame in a module
// package, so runtime helpers (memmove, mallocgc) count against the
// layer that called them; samples with no module frame go to
// "runtime". Sub-packages fold into their parent module (obs/span to
// obs, workloads/pattern to workloads, sample/ckpt to sample).
func foldProfile(samples []profSample) map[string]float64 {
	known := map[string]bool{}
	for _, l := range hostLayers {
		known[l] = true
	}
	sum := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.Stack {
			if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
				layer = rest[:strings.IndexAny(rest+".", "./")]
				if !known[layer] {
					layer = "other"
				}
				break
			}
		}
		sum[layer] += float64(s.Value)
		total += float64(s.Value)
	}
	out := map[string]float64{}
	for _, l := range hostLayers {
		if total > 0 {
			out[l] = 100 * sum[l] / total
		} else {
			out[l] = 0
		}
	}
	return out
}

// decodeProfile reads the samples of a gzipped profile.proto message
// (the runtime/pprof output format), taking each sample's last value
// (CPU nanoseconds for a CPU profile).
func decodeProfile(raw []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
		strs     []string
	)
	err = eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(n, wt int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, d)
				case 2:
					for _, x := range appendPacked(nil, wt, v, d) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n, wt int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n, wt int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(n, wt int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if n := len(s.vals); n > 0 {
			ps.Value = s.vals[n-1]
		}
		for _, l := range s.locs {
			for _, f := range locLines[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					ps.Stack = append(ps.Stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wt int, v uint64, data []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type and value (varint) or payload (length-delimited).
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}
