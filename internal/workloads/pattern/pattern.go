// Package pattern compiles Spatter-style gather/scatter pattern JSON
// into simulated workloads, turning dx100sim/dx100d into a tool users
// can point at their own access traces. A pattern file is a list of
// entries; each entry names a kernel (gather, scatter or gs), an index
// pattern, and a per-iteration delta — exactly the shape Spatter's own
// JSON inputs use, so real Spatter suites load unmodified (unknown
// fields are ignored). Compiled instances flow through the same
// loopir/exp machinery as every built-in workload, and a File is part
// of exp.Spec's content address, so equal patterns hit the result
// cache and byte-identity holds between the CLI and daemon paths.
//
// Inputs are untrusted (dx100d accepts them over HTTP): Parse
// validates structure and Validate enforces hard size caps, so a
// hostile file fails with an error instead of an allocation storm —
// FuzzPatternCompile pins that no input panics and that
// parse -> canonicalize -> parse is byte-stable.
package pattern

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"dx100/internal/dx100"
	"dx100/internal/loopir"
	"dx100/internal/memspace"
	"dx100/internal/prefetch"
	"dx100/internal/workloads"
)

// Hard caps on compiled size. They bound a single daemon job's memory
// to tens of MB however hostile the input; Compile re-checks them
// after applying the scale factor.
const (
	MaxEntries    = 64      // entries per file
	MaxPatternLen = 4096    // indices per pattern
	MaxCount      = 1 << 16 // delta iterations per entry
	MaxEntryIdx   = 1 << 18 // compiled indices per entry (count * len)
	MaxEntrySpan  = 1 << 22 // target-array elements per entry
	MaxFileIdx    = 1 << 20 // compiled indices per file
	MaxFileSpan   = 1 << 23 // target-array elements per file
	maxNameLen    = 128     // file/entry name length
)

// Entry is one gather/scatter loop: count iterations, each accessing
// target[p + delta*i] for every p in the pattern. Kernel "gs" pairs a
// gather pattern with a scatter pattern of equal length
// (target[scatter[j]+delta*i] = source[gather[j]+delta*i]).
type Entry struct {
	Name    string  `json:"name,omitempty"`
	Kernel  string  `json:"kernel"`
	Pattern Indices `json:"pattern,omitempty"`
	Gather  Indices `json:"pattern_gather,omitempty"`
	Scatter Indices `json:"pattern_scatter,omitempty"`
	Delta   int64   `json:"delta,omitempty"`
	Count   int64   `json:"count,omitempty"`
	// Wrap, when positive, folds the effective index modulo Wrap —
	// Spatter's bounded-footprint mode.
	Wrap int64 `json:"wrap,omitempty"`
}

// File is a parsed pattern file. The JSON form doubles as the
// canonical encoding embedded in exp.Spec.
type File struct {
	Name    string    `json:"name,omitempty"`
	Entries EntryList `json:"entries"`
}

// Indices is one index pattern. It decodes only up to MaxPatternLen
// indices: a longer list is refused before any of it is built.
type Indices []int64

// UnmarshalJSON implements json.Unmarshaler.
func (p *Indices) UnmarshalJSON(b []byte) error {
	return decodeCapped(b, (*[]int64)(p), MaxPatternLen, "indices in a pattern")
}

// EntryList is a file's entries. It decodes only up to MaxEntries
// entries: a longer list is refused before any entry is built.
type EntryList []Entry

// UnmarshalJSON implements json.Unmarshaler.
func (l *EntryList) UnmarshalJSON(b []byte) error {
	return decodeCapped(b, (*[]Entry)(l), MaxEntries, "entries")
}

// decodeCapped decodes the JSON array b into v unless b holds more
// than max elements, which it counts first as the commas at the
// array's own depth. encoding/json checks the whole input before it
// calls an UnmarshalJSON method, so b's brackets balance and its
// strings close. Left to Validate, the caps would come too late: a
// 4 MiB body of empty entries decodes into 1.4M entries first.
func decodeCapped(b []byte, v any, max int, what string) error {
	commas, depth, inString := 0, 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ',' && depth == 1:
			if commas++; commas >= max {
				return fmt.Errorf("more than %d %s", max, what)
			}
		}
	}
	return json.Unmarshal(b, v)
}

// Parse decodes pattern JSON in either accepted syntax — a bare
// Spatter entry array, or a {name, entries} object — then normalizes
// and validates it.
func Parse(data []byte) (*File, error) {
	var f File
	var err error
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		err = json.Unmarshal(data, &f.Entries)
	} else {
		err = json.Unmarshal(data, &f)
	}
	if err != nil {
		return nil, fmt.Errorf("pattern: parse: %w", err)
	}
	f.normalize()
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// normalize rewrites the file into its canonical form: names coerced
// to valid UTF-8 (encoding/json would escape invalid bytes as U+FFFD,
// breaking round-trip stability — the same coercion Spec.Canonical
// applies to workload names), kernels lowercased, zero counts
// defaulted to 1, empty slices folded to nil. Idempotent, which is
// what makes Canonical a fixed point under re-parsing.
func (f *File) normalize() {
	f.Name = strings.ToValidUTF8(f.Name, "�")
	for i := range f.Entries {
		e := &f.Entries[i]
		e.Name = strings.ToValidUTF8(e.Name, "�")
		e.Kernel = strings.ToLower(strings.ToValidUTF8(e.Kernel, "�"))
		if e.Count == 0 {
			e.Count = 1
		}
		if len(e.Pattern) == 0 {
			e.Pattern = nil
		}
		if len(e.Gather) == 0 {
			e.Gather = nil
		}
		if len(e.Scatter) == 0 {
			e.Scatter = nil
		}
	}
}

// Normalized returns a normalized copy, for callers embedding a File
// they did not obtain from Parse (the daemon's request decoding).
func (f File) Normalized() File {
	out := f
	out.Entries = append([]Entry(nil), f.Entries...)
	out.normalize()
	return out
}

// span returns the target-array footprint (max effective index + 1)
// of one pattern under the entry's delta/count/wrap, or an error when
// any index falls outside the caps.
func (e Entry) span(pat []int64) (int64, error) {
	var max int64
	for _, p := range pat {
		if p < 0 {
			return 0, fmt.Errorf("pattern: negative index %d", p)
		}
		// Indices grow monotonically with i, so the last iteration
		// bounds the span; wrap folds it back first.
		hi := p + e.Delta*(e.Count-1)
		if e.Wrap > 0 {
			if p >= e.Wrap {
				return 0, fmt.Errorf("pattern: index %d outside wrap %d", p, e.Wrap)
			}
			hi = e.Wrap - 1
		}
		if hi+1 > max {
			max = hi + 1
		}
	}
	if max > MaxEntrySpan {
		return 0, fmt.Errorf("pattern: entry spans %d elements, cap %d", max, MaxEntrySpan)
	}
	return max, nil
}

// Validate enforces structural rules and the size caps at scale 1.
func (f *File) Validate() error {
	if len(f.Name) > maxNameLen {
		return fmt.Errorf("pattern: file name longer than %d bytes", maxNameLen)
	}
	if len(f.Entries) == 0 {
		return fmt.Errorf("pattern: no entries")
	}
	if len(f.Entries) > MaxEntries {
		return fmt.Errorf("pattern: %d entries, cap %d", len(f.Entries), MaxEntries)
	}
	var fileIdx, fileSpan int64
	for i := range f.Entries {
		e := &f.Entries[i]
		if len(e.Name) > maxNameLen {
			return fmt.Errorf("pattern: entry %d name longer than %d bytes", i, maxNameLen)
		}
		if e.Count < 1 || e.Count > MaxCount {
			return fmt.Errorf("pattern: entry %d count %d outside [1, %d]", i, e.Count, MaxCount)
		}
		if e.Delta < 0 || e.Delta > MaxEntrySpan {
			return fmt.Errorf("pattern: entry %d delta %d outside [0, %d]", i, e.Delta, MaxEntrySpan)
		}
		if e.Wrap < 0 || e.Wrap > MaxEntrySpan {
			return fmt.Errorf("pattern: entry %d wrap %d outside [0, %d]", i, e.Wrap, MaxEntrySpan)
		}
		var pats [][]int64
		switch e.Kernel {
		case "gather", "scatter":
			if len(e.Pattern) == 0 {
				return fmt.Errorf("pattern: entry %d (%s) has no pattern", i, e.Kernel)
			}
			if len(e.Gather) > 0 || len(e.Scatter) > 0 {
				return fmt.Errorf("pattern: entry %d (%s) must not set pattern_gather/pattern_scatter", i, e.Kernel)
			}
			pats = [][]int64{e.Pattern}
		case "gs":
			if len(e.Gather) == 0 || len(e.Scatter) == 0 {
				return fmt.Errorf("pattern: entry %d (gs) needs pattern_gather and pattern_scatter", i)
			}
			if len(e.Gather) != len(e.Scatter) {
				return fmt.Errorf("pattern: entry %d (gs) gather/scatter lengths differ (%d vs %d)",
					i, len(e.Gather), len(e.Scatter))
			}
			if len(e.Pattern) > 0 {
				return fmt.Errorf("pattern: entry %d (gs) must not set pattern", i)
			}
			pats = [][]int64{e.Gather, e.Scatter}
		default:
			return fmt.Errorf("pattern: entry %d has unknown kernel %q (want gather, scatter or gs)", i, e.Kernel)
		}
		for _, pat := range pats {
			if len(pat) > MaxPatternLen {
				return fmt.Errorf("pattern: entry %d pattern length %d, cap %d", i, len(pat), MaxPatternLen)
			}
			idx := e.Count * int64(len(pat))
			if idx > MaxEntryIdx {
				return fmt.Errorf("pattern: entry %d compiles to %d indices, cap %d", i, idx, MaxEntryIdx)
			}
			span, err := e.span(pat)
			if err != nil {
				return fmt.Errorf("%w (entry %d)", err, i)
			}
			fileIdx += idx
			fileSpan += span
		}
	}
	if fileIdx > MaxFileIdx {
		return fmt.Errorf("pattern: file compiles to %d indices, cap %d", fileIdx, MaxFileIdx)
	}
	if fileSpan > MaxFileSpan {
		return fmt.Errorf("pattern: file spans %d target elements, cap %d", fileSpan, MaxFileSpan)
	}
	return nil
}

// Canonical returns the canonical encoding — normalized JSON in the
// File syntax. Parse(Canonical(f)) reproduces f and re-canonicalizes
// to the same bytes (FuzzPatternCompile pins this).
func (f File) Canonical() ([]byte, error) {
	n := f.Normalized()
	b, err := json.Marshal(n)
	if err != nil {
		return nil, fmt.Errorf("pattern: canonicalize: %w", err)
	}
	return b, nil
}

// InstanceName is the workload name compiled instances carry —
// "pattern:<file name>", or just "pattern" for anonymous files. It is
// what Result.Workload reports.
func (f File) InstanceName() string {
	if f.Name == "" {
		return "pattern"
	}
	return "pattern:" + f.Name
}

// indicesOf expands one pattern into the flat index array the compiled
// kernel loads: iteration-major, pattern-minor.
func (e Entry) indicesOf(pat []int64, scale int) []uint64 {
	idx := make([]uint64, 0, int(e.Count)*scale*len(pat))
	for i := int64(0); i < e.Count*int64(scale); i++ {
		// Scaled runs revisit the pattern after the original count:
		// footprint is part of the pattern's identity, so scale
		// multiplies traffic, not span.
		base := e.Delta * (i % e.Count)
		for _, p := range pat {
			v := p + base
			if e.Wrap > 0 {
				v %= e.Wrap
			}
			idx = append(idx, uint64(v))
		}
	}
	return idx
}

// Compile builds the workload instance for the file at the given
// scale (>= 1; scale multiplies each entry's iteration count). One
// loopir kernel per entry, executed in file order like any multi-kernel
// workload; array names are suffixed with the entry index so each
// entry gets its own target/source/index regions.
func Compile(f *File, scale int) (*workloads.Instance, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	if int64(scale)*MaxEntryIdx > 1<<30 {
		return nil, fmt.Errorf("pattern: scale %d too large", scale)
	}
	rng := rand.New(rand.NewSource(901))
	type fill struct {
		array string
		vals  []uint64
	}
	var kernels []*loopir.Kernel
	var fills []fill
	var dmp []struct{ index, target string }
	for ei := range f.Entries {
		e := &f.Entries[ei]
		s := func(base string) string { return fmt.Sprintf("%s%d", base, ei) }
		switch e.Kernel {
		case "gather":
			span, _ := e.span(e.Pattern)
			idx := e.indicesOf(e.Pattern, scale)
			n := len(idx)
			kernels = append(kernels, &loopir.Kernel{
				Name: s("gather"),
				Arrays: map[string]loopir.ArrayInfo{
					s("A"): {DType: dx100.U64, Len: int(span)},
					s("B"): {DType: dx100.U64, Len: n},
					s("C"): {DType: dx100.U64, Len: n},
				},
				Var: "i", Lo: loopir.Imm{Val: 0}, Hi: loopir.Imm{Val: int64(n)},
				Body: []loopir.Stmt{
					loopir.Store{Array: s("C"), Idx: loopir.Var{Name: "i"},
						Val: loopir.Load{Array: s("A"), Idx: loopir.Load{Array: s("B"), Idx: loopir.Var{Name: "i"}}}},
				},
			})
			fills = append(fills,
				fill{s("B"), idx},
				fill{s("A"), smallInts(rng, int(span), 1<<20)})
			dmp = append(dmp, struct{ index, target string }{s("B"), s("A")})
		case "scatter":
			span, _ := e.span(e.Pattern)
			idx := e.indicesOf(e.Pattern, scale)
			n := len(idx)
			kernels = append(kernels, &loopir.Kernel{
				Name: s("scatter"),
				Arrays: map[string]loopir.ArrayInfo{
					s("A"): {DType: dx100.U64, Len: int(span)},
					s("B"): {DType: dx100.U64, Len: n},
					s("C"): {DType: dx100.U64, Len: n},
				},
				Var: "i", Lo: loopir.Imm{Val: 0}, Hi: loopir.Imm{Val: int64(n)},
				Body: []loopir.Stmt{
					loopir.Store{Array: s("A"), Idx: loopir.Load{Array: s("B"), Idx: loopir.Var{Name: "i"}},
						Val: loopir.Load{Array: s("C"), Idx: loopir.Var{Name: "i"}}},
				},
			})
			fills = append(fills,
				fill{s("B"), idx},
				fill{s("C"), smallInts(rng, n, 1<<20)})
			dmp = append(dmp, struct{ index, target string }{s("B"), s("A")})
		case "gs":
			gspan, _ := e.span(e.Gather)
			sspan, _ := e.span(e.Scatter)
			gidx := e.indicesOf(e.Gather, scale)
			sidx := e.indicesOf(e.Scatter, scale)
			n := len(gidx)
			kernels = append(kernels, &loopir.Kernel{
				Name: s("gs"),
				Arrays: map[string]loopir.ArrayInfo{
					s("X"): {DType: dx100.U64, Len: int(gspan)},
					s("G"): {DType: dx100.U64, Len: n},
					s("A"): {DType: dx100.U64, Len: int(sspan)},
					s("S"): {DType: dx100.U64, Len: n},
				},
				Var: "i", Lo: loopir.Imm{Val: 0}, Hi: loopir.Imm{Val: int64(n)},
				Body: []loopir.Stmt{
					loopir.Store{Array: s("A"), Idx: loopir.Load{Array: s("S"), Idx: loopir.Var{Name: "i"}},
						Val: loopir.Load{Array: s("X"), Idx: loopir.Load{Array: s("G"), Idx: loopir.Var{Name: "i"}}}},
				},
			})
			fills = append(fills,
				fill{s("G"), gidx},
				fill{s("S"), sidx},
				fill{s("X"), smallInts(rng, int(gspan), 1<<20)})
			dmp = append(dmp,
				struct{ index, target string }{s("G"), s("X")},
				struct{ index, target string }{s("S"), s("A")})
		}
	}
	sp := memspace.New()
	inst := workloads.NewInstance(f.InstanceName(),
		fmt.Sprintf("compiled pattern file (%d entries)", len(f.Entries)), sp, kernels)
	for _, fl := range fills {
		inst.SetU64(fl.array, fl.vals)
	}
	inst.DMP = func() []prefetch.Pattern {
		out := make([]prefetch.Pattern, len(dmp))
		for i, d := range dmp {
			out[i] = inst.PatternFor(d.index, d.target)
		}
		return out
	}
	return inst, nil
}

// smallInts mirrors the workloads generator of the same name: integral
// values that stay exact in any element type.
func smallInts(rng *rand.Rand, n, mod int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(1 + rng.Intn(mod))
	}
	return v
}
