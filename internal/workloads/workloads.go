// Package workloads implements the paper's evaluation programs: the
// 12 benchmarks of §5 (NAS IS/CG, GAP BFS/PR/BC, Hash-Join PRH/PRO,
// UME GZZ/GZZI/GZP/GZPI, Spatter XRAGE) and the five microbenchmarks
// of §6.1, each expressed as a loopir kernel over synthetic datasets
// that reproduce the published distribution statistics. One IR per
// workload feeds both backends: the baseline µop generator and the
// DX100 compiler, so both simulate the same computation and can be
// verified against the reference interpreter.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"dx100/internal/dx100"
	"dx100/internal/loopir"
	"dx100/internal/memspace"
	"dx100/internal/prefetch"
)

// Instance is one generated workload: its kernels, the simulated
// memory holding its dataset, and metadata driving the runners.
type Instance struct {
	Name    string
	Pattern string // the Table 1 row
	Space   *memspace.Space
	Kernels []*loopir.Kernel
	Binder  loopir.Binder
	// MaxRange gives, per kernel, the longest inner-range length (0 =
	// no range loops); runners size the outer chunk so the fused space
	// fits one tile: chunk = tileElems / (MaxRange + 2).
	MaxRange []int
	// AtomicRMW marks kernels whose baseline needs locked RMWs on a
	// multi-core run (§6.1).
	AtomicRMW bool
	// Consume marks LD-type workloads whose cores stream the gathered
	// tiles from the scratchpad in the DX100 configuration.
	Consume bool
	// DMP returns the indirect patterns for the DMP prefetcher model.
	DMP func() []prefetch.Pattern
	// HotClass, when non-nil, classifies a physical line address of the
	// indirectly-indexed data: 0 = hub (high-degree node records),
	// 1 = tail, negative = outside the classified arrays. Profiled runs
	// install it on the LLC to attribute hits and misses per class
	// (the llc.hub_* / llc.tail_* timeline probes); it is observation
	// metadata only and never enters the Result or the content hash.
	HotClass func(pa memspace.PAddr) int

	arrays map[string]memspace.Words
}

// HubClass and TailClass index the HotClass counter slices.
const (
	HubClass  = 0
	TailClass = 1
)

// markHotClass installs the hub/tail classifier over the named padded
// per-node arrays (slotsPerNode record slots each): a node is a hub
// when hub[node] is set. Classification is line-granular — a line is
// attributed to the node owning its first byte — which is exact enough
// for hit-rate attribution and keeps the probe O(#arrays) per access.
func (inst *Instance) markHotClass(names []string, hub []bool, slotsPerNode int) {
	type paRange struct {
		lo, hi memspace.PAddr
		esz    int
	}
	var ranges []paRange
	for _, n := range names {
		v, ok := inst.arrays[n]
		if !ok {
			continue
		}
		lo := inst.Space.Translate(v.Base())
		ranges = append(ranges, paRange{lo: lo, hi: lo + memspace.PAddr(v.Len()*v.ElemSize()), esz: v.ElemSize()})
	}
	if len(ranges) == 0 {
		return
	}
	inst.HotClass = func(pa memspace.PAddr) int {
		for _, r := range ranges {
			if pa >= r.lo && pa < r.hi {
				node := int(pa-r.lo) / r.esz / slotsPerNode
				if node < len(hub) && hub[node] {
					return HubClass
				}
				return TailClass
			}
		}
		return -1
	}
}

// Builder constructs an instance at the given scale (1 = unit-test
// size; 8+ = benchmark size). Generated datasets grow linearly with
// scale.
type Builder func(scale int) *Instance

// Registry maps workload names to builders, and Order lists the 12
// paper benchmarks in Figure 9's order.
var (
	Registry = map[string]Builder{}
	Order    = []string{"IS", "CG", "BFS", "PR", "BC", "PRH", "PRO", "GZZ", "GZZI", "GZP", "GZPI", "XRAGE"}
)

func register(name string, b Builder) {
	Registry[name] = b
}

// newInstance wires the common fields and allocates the kernel arrays
// in simulated memory.
func newInstance(name, pattern string, sp *memspace.Space, ks []*loopir.Kernel) *Instance {
	inst := &Instance{
		Name:     name,
		Pattern:  pattern,
		Space:    sp,
		Kernels:  ks,
		Binder:   loopir.Binder{Base: map[string]memspace.VAddr{}},
		MaxRange: make([]int, len(ks)),
		arrays:   map[string]memspace.Words{},
	}
	for _, k := range ks {
		names := make([]string, 0, len(k.Arrays))
		for n := range k.Arrays {
			names = append(names, n)
		}
		sort.Strings(names) // deterministic layout
		for _, n := range names {
			if _, done := inst.Binder.Base[n]; done {
				continue
			}
			info := k.Arrays[n]
			r := sp.Alloc(name+"."+n, uint64(info.Len*info.DType.Size()))
			w, err := sp.Words(r.Base, info.DType.Size(), info.Len)
			if err != nil {
				panic(fmt.Sprintf("workloads: %s: %v", name, err))
			}
			inst.Binder.Base[n] = r.Base
			inst.arrays[n] = w
		}
	}
	return inst
}

// NewInstance exposes the instance constructor to external workload
// front-ends (the pattern compiler in workloads/pattern); in-package
// builders use newInstance directly.
func NewInstance(name, pattern string, sp *memspace.Space, ks []*loopir.Kernel) *Instance {
	return newInstance(name, pattern, sp, ks)
}

// SetU64 fills array name from vals (raw words) — the exported form of
// setU64 for external front-ends.
func (inst *Instance) SetU64(name string, vals []uint64) { inst.setU64(name, vals) }

// PatternFor builds a DMP pattern descriptor from instance arrays —
// the exported form of pattern for external front-ends.
func (inst *Instance) PatternFor(index, target string) prefetch.Pattern {
	return inst.pattern(index, target)
}

// setU64 fills array name from vals (raw words).
func (inst *Instance) setU64(name string, vals []uint64) {
	v := inst.arrays[name]
	if len(vals) > v.Len() {
		panic(fmt.Sprintf("workloads: %s overflow", name))
	}
	for i, x := range vals {
		v.Set(i, x)
	}
}

// Read returns raw element i of array name.
func (inst *Instance) Read(name string, i int) uint64 { return inst.arrays[name].Get(i) }

// Len returns the element count of array name.
func (inst *Instance) Len(name string) int { return inst.arrays[name].Len() }

// ChunkFor returns the safe outer chunk of kernel ki for a given tile
// capacity.
func (inst *Instance) ChunkFor(ki, tileElems int) int {
	m := inst.MaxRange[ki]
	if m == 0 {
		return tileElems
	}
	c := tileElems / (m + 2)
	if c < 1 {
		c = 1
	}
	return c
}

// Checksum folds the named arrays (outputs) into one value for
// verification between runs.
func (inst *Instance) Checksum(names ...string) uint64 {
	var sum uint64
	for _, n := range names {
		v := inst.arrays[n]
		for i := 0; i < v.Len(); i++ {
			sum = sum*1099511628211 + v.Get(i)
		}
	}
	return sum
}

// pattern builds a DMP pattern descriptor from instance arrays.
func (inst *Instance) pattern(index, target string) prefetch.Pattern {
	iv, tv := inst.arrays[index], inst.arrays[target]
	return prefetch.Pattern{
		IndexBase: iv.Base(), IndexCount: iv.Len(), IndexSize: iv.ElemSize(),
		TargetBase: tv.Base(), TargetSize: tv.ElemSize(),
	}
}

// --- dataset generators -------------------------------------------------

// csrUniform builds a uniform graph in CSR form: n nodes with degree
// drawn uniformly in [1, 2*deg), edges uniform over nodes (the GAP
// setup of §5: uniform graphs with average degree 15).
func csrUniform(rng *rand.Rand, n, deg int) (offsets, edges []uint64) {
	offsets = make([]uint64, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + uint64(1+rng.Intn(2*deg-1))
	}
	edges = make([]uint64, offsets[n])
	for i := range edges {
		edges[i] = uint64(rng.Intn(n))
	}
	return offsets, edges
}

// maxRangeLen returns the longest range in a CSR offset array —
// used to size safe RNG chunks.
func maxRangeLen(offsets []uint64) int {
	m := 1
	for i := 1; i < len(offsets); i++ {
		if d := int(offsets[i] - offsets[i-1]); d > m {
			m = d
		}
	}
	return m
}

// umeIndices builds an index array with the UME mesh's locality
// statistics (§6.2): element i maps near position i*spread in a target
// space of mod elements, displaced by a jump of mean meanDist — i.e.
// limited spatial locality without full randomness. spread > 1 models
// zone-to-point expansion (multiple points per zone record).
func umeIndices(rng *rand.Rand, n, meanDist, mod, spread int) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		// Laplace-ish jump with mean |jump| = meanDist.
		jump := int(rng.ExpFloat64() * float64(meanDist))
		if rng.Intn(2) == 0 {
			jump = -jump
		}
		t := (i*spread + jump) % mod
		if t < 0 {
			t += mod
		}
		b[i] = uint64(t)
	}
	return b
}

// permutation returns a random permutation of [0, n).
func permutation(rng *rand.Rand, n int) []uint64 {
	p := make([]uint64, n)
	for i, v := range rng.Perm(n) {
		p[i] = uint64(v)
	}
	return p
}

// uniformIndices returns n indices uniform over [0, mod).
func uniformIndices(rng *rand.Rand, n, mod int) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		b[i] = uint64(rng.Intn(mod))
	}
	return b
}

// smallInts returns n integral values in [1, mod] — stored exactly in
// any element type, keeping float reductions order-insensitive.
func smallInts(rng *rand.Rand, n, mod int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(1 + rng.Intn(mod))
	}
	return v
}

// f64Bits converts integral values to f64 raw bits.
func f64Bits(vals []uint64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = dx100.BitsOf(dx100.F64, float64(v))
	}
	return out
}

// xrageIndices builds a Spatter-style xRAGE access pattern (§5): short
// strided runs of mixed lengths separated by long jumps, as produced
// by the AMR gather/scatter loops the trace methodology captures.
func xrageIndices(rng *rand.Rand, n, mod int) []uint64 {
	b := make([]uint64, n)
	pos := rng.Intn(mod)
	i := 0
	for i < n {
		run := 4 + rng.Intn(12)
		stride := 1 + rng.Intn(3)
		for r := 0; r < run && i < n; r++ {
			b[i] = uint64(pos % mod)
			pos += stride
			i++
		}
		pos = rng.Intn(mod)
	}
	return b
}
