package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"dx100/internal/cpu"
	"dx100/internal/dx100"
	"dx100/internal/loopir"
)

// interpretInstance runs the reference interpreter over a fresh copy
// of the instance's arrays and returns the resulting contents.
func interpretInstance(t *testing.T, inst *Instance) map[string][]uint64 {
	t.Helper()
	state := map[string][]uint64{}
	for name, v := range inst.arrays {
		vals := make([]uint64, v.Len())
		for i := range vals {
			vals[i] = inst.Read(name, i)
		}
		state[name] = vals
	}
	for _, k := range inst.Kernels {
		env := &loopir.Env{Arrays: state, Params: k.Params}
		if err := loopir.Interpret(k, env); err != nil {
			t.Fatalf("interpret %s: %v", k.Name, err)
		}
	}
	return state
}

func compareState(t *testing.T, inst *Instance, want map[string][]uint64, label string) {
	t.Helper()
	for name, vals := range want {
		for i, w := range vals {
			if got := inst.Read(name, i); got != w {
				t.Fatalf("%s: %s[%d] = %#x, want %#x", label, name, i, got, w)
			}
		}
	}
}

func TestAllWorkloadsBuildAndAreLegal(t *testing.T) {
	if len(Order) != 12 {
		t.Fatalf("expected 12 benchmarks, have %d", len(Order))
	}
	for _, name := range Order {
		b, ok := Registry[name]
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		inst := b(1)
		if inst.Name != name {
			t.Errorf("%s: instance name %q", name, inst.Name)
		}
		if inst.Pattern == "" {
			t.Errorf("%s: empty Table 1 pattern", name)
		}
		if len(inst.Kernels) == 0 {
			t.Errorf("%s: no kernels", name)
		}
		for _, k := range inst.Kernels {
			if err := loopir.Legal(k); err != nil {
				t.Errorf("%s: kernel %s illegal: %v", name, k.Name, err)
			}
		}
	}
}

// TestDX100MatchesInterpreter compiles every workload's kernels and
// runs them on the functional machine, comparing against the
// reference interpreter — the paper's functional-simulator
// verification flow (§5).
func TestDX100MatchesInterpreter(t *testing.T) {
	for _, name := range Order {
		name := name
		t.Run(name, func(t *testing.T) {
			inst := Registry[name](1)
			want := interpretInstance(t, inst)
			m := dx100.NewMachine(inst.Space, dx100.DefaultMachineConfig())
			for ki, k := range inst.Kernels {
				c, err := loopir.Compile(k, inst.Binder, m.Config().TileElems)
				if err != nil {
					t.Fatalf("compile %s: %v", k.Name, err)
				}
				if err := c.Run(m, inst.ChunkFor(ki, m.Config().TileElems)); err != nil {
					t.Fatalf("run %s: %v", k.Name, err)
				}
			}
			compareState(t, inst, want, "dx100")
		})
	}
}

// baselineDigests pins the baseline µop generator's output: the
// SHA-256, over every op's Kind, Addr, Lat, Dep1, Dep2 and Weight in
// order, of each case's drained streams. The table was recorded from
// the name-resolving generator the slot-resolved one replaced, so any
// change to the µops emitted fails here, not only one that moves the
// goldens' cycle counts.
var baselineDigests = map[string]string{
	"IS":                 "13045b165768d0cb43cd65a358c2c636a579fccc10769881a65741a4d15cc70d", // 163840 ops
	"CG":                 "ca416976769439516eb3a34c947d4ccf18ddc686657992d90b34b971a960003b", // 422200 ops
	"BFS":                "be252a7b885dd64cec8b3270f82915a346de6eea40d4daf71fba7fba2964f314", // 383670 ops
	"PR":                 "a6ff66a62bb7d09ddd50fba5dab2858b35ab6d5d18d27d4a51f19e03459f0e71", // 425462 ops
	"BC":                 "4ceac408dae127e79e28c035307ca95f44812f1b0b9ef88d49481a250e117b1f", // 361660 ops
	"PRH":                "0b3ea82042e9face8eb0ebc438c6fb19f5de1f7c9250bce3d5fe1511e4a7c72d", // 458752 ops
	"PRO":                "a358d3ae3f73989a846557d056c7a1802d73e05105f16fe8a11987f5b20a6e0e", // 393216 ops
	"GZZ":                "2164b2bc210331766790185cba46a653290107e625f780c2a8b5bc67d4f76b0d", // 254292 ops
	"GZZI":               "6e103d2fcafac2421cdcb81f2a30f68c988997bdfca1b4e356de120d3689b96c", // 97680 ops
	"GZP":                "39dd7f0d6801076f9f0bf12013f3e9f0afa7fffa7bf6c8a5bd12ca51464f2e29", // 254047 ops
	"GZPI":               "9c1bd417ff6a9c6bf8e496ca656001ad3208856ff162ec77f9b714a816a6965e", // 96408 ops
	"XRAGE":              "2f586711379f8cb731ace7905f54db8470c1137e55fac86b8353a92edc278976", // 393216 ops
	"micro.gather":       "54bc30808742e2dac40ec7d3770db1eb274fbd9396a5a7359959a0ffb4b92839", // 262144 ops
	"micro.gather.spd":   "54bc30808742e2dac40ec7d3770db1eb274fbd9396a5a7359959a0ffb4b92839", // 262144 ops
	"micro.rmw":          "09573495d04808dbfcd404aa1631f76d39ef4e3160a4c741423a18c025fac3c6", // 393216 ops
	"micro.rmw.atomic":   "09573495d04808dbfcd404aa1631f76d39ef4e3160a4c741423a18c025fac3c6", // 393216 ops
	"micro.scatter":      "acfef65bfd2090565c8ea0ae7e7bf411de1d2c115428c642b3b0350db29d2a10", // 262144 ops
	"IS.atomic.core1of4": "47559c21a4e5b4c9b57b98380b540211a5876cebe32e9709e2cc1c63b1a6b39e", // 24576 ops
}

// streamDigest drains s into h and returns the number of ops.
func streamDigest(h hash.Hash, s cpu.Stream) int {
	var b [20]byte
	var op cpu.MicroOp
	n := 0
	for ; s.Next(&op); n++ {
		b[0] = byte(op.Kind)
		binary.LittleEndian.PutUint64(b[1:], uint64(op.Addr))
		b[9] = op.Lat
		binary.LittleEndian.PutUint32(b[10:], op.Dep1)
		binary.LittleEndian.PutUint32(b[14:], op.Dep2)
		binary.LittleEndian.PutUint16(b[18:], op.Weight)
		h.Write(b[:])
	}
	return n
}

// baselineStream builds kernel k's generator over the share of its
// outer iterations that core c of n runs, as exp partitions them.
func baselineStream(t testing.TB, inst *Instance, k *loopir.Kernel, c, n int, atomic bool) cpu.Stream {
	t.Helper()
	lo, hi, err := loopir.InterpretBounds(k, &loopir.Env{Params: k.Params})
	if err != nil {
		t.Fatalf("bounds: %v", err)
	}
	span := hi - lo
	g, err := loopir.NewUopGen(k, inst.Binder, inst.Space, lo+span*int64(c)/int64(n), lo+span*int64(c+1)/int64(n), atomic)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBaselineStreamMatchesInterpreter drains the baseline µop
// generator (which applies its writes while emitting) and checks the
// final memory state against the interpreter and the µop stream
// against baselineDigests. The atomic case is IS as core 1 of 4 with
// locked RMWs, the stream a multi-core baseline run gives that core.
func TestBaselineStreamMatchesInterpreter(t *testing.T) {
	names := append(append([]string{}, Order...),
		"micro.gather", "micro.gather.spd", "micro.rmw", "micro.rmw.atomic", "micro.scatter")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			inst := Registry[name](1)
			want := interpretInstance(t, inst)
			h := sha256.New()
			ops := 0
			for _, k := range inst.Kernels {
				ops += streamDigest(h, baselineStream(t, inst, k, 0, 1, false))
			}
			if ops == 0 {
				t.Fatal("baseline stream empty")
			}
			compareState(t, inst, want, "baseline")
			if got := hex.EncodeToString(h.Sum(nil)); got != baselineDigests[name] {
				t.Errorf("µop stream digest %s (%d ops), want %s", got, ops, baselineDigests[name])
			}
		})
	}
	t.Run("IS.atomic.core1of4", func(t *testing.T) {
		inst := Registry["IS"](1)
		if !inst.AtomicRMW {
			t.Fatal("IS no longer marks its RMWs atomic")
		}
		h := sha256.New()
		ops := 0
		for _, k := range inst.Kernels {
			ops += streamDigest(h, baselineStream(t, inst, k, 1, 4, true))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != baselineDigests["IS.atomic.core1of4"] {
			t.Errorf("µop stream digest %s (%d ops), want %s", got, ops, baselineDigests["IS.atomic.core1of4"])
		}
	})
}

// BenchmarkUopGen times the baseline µop generator alone: one
// iteration builds and drains the streams of every kernel of GZZ or PR
// at scale 2, and ns/µop divides the time by the µops drained. The
// generator writes its results to memory as it goes, so later
// iterations update the same arrays and emit the same µops.
func BenchmarkUopGen(b *testing.B) {
	for _, name := range []string{"GZZ", "PR"} {
		b.Run(name, func(b *testing.B) {
			inst := Registry[name](2)
			var op cpu.MicroOp
			ops := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range inst.Kernels {
					s := baselineStream(b, inst, k, 0, 1, false)
					for s.Next(&op) {
						ops++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/µop")
		})
	}
}

func TestChecksumAndAccessors(t *testing.T) {
	inst := Registry["IS"](1)
	if inst.Len("B") == 0 {
		t.Fatal("Len wrong")
	}
	c1 := inst.Checksum("A")
	inst.setU64("A", []uint64{1})
	if c2 := inst.Checksum("A"); c2 == c1 {
		t.Fatal("checksum insensitive to changes")
	}
}

func TestChunkFor(t *testing.T) {
	inst := Registry["CG"](1)
	if inst.MaxRange[0] == 0 {
		t.Fatal("CG should have ranges")
	}
	c := inst.ChunkFor(0, 16384)
	if c <= 0 || c > 16384 {
		t.Fatalf("chunk = %d", c)
	}
	if (inst.MaxRange[0]+2)*c > 16384 {
		t.Fatalf("chunk %d unsafe for max range %d", c, inst.MaxRange[0])
	}
	flat := Registry["IS"](1)
	if flat.ChunkFor(0, 4096) != 4096 {
		t.Fatal("flat kernels should use whole tiles")
	}
}

func TestDMPPatternsPresent(t *testing.T) {
	for _, name := range Order {
		inst := Registry[name](1)
		if inst.DMP == nil {
			t.Errorf("%s: nil DMP func", name)
		}
	}
}

func TestUMEIndexDistance(t *testing.T) {
	inst := Registry["GZZ"](4)
	n := inst.Len("B")
	target := inst.Len("A")
	spread := target / n
	var sum float64
	for i := 0; i < n; i++ {
		d := int64(inst.Read("B", i)) - int64(i*spread)
		if d < 0 {
			d = -d
		}
		// Wrap-around jumps measure as huge; fold them.
		if d > int64(target)/2 {
			d = int64(target) - d
		}
		sum += float64(d)
	}
	mean := sum / float64(n)
	want := float64(target) / 24
	if mean < want/4 || mean > want*4 {
		t.Fatalf("mean index distance %.0f, want ~%.0f (§6.2 statistics)", mean, want)
	}
}

// TestBuildersDeterministic: two builds at the same scale produce
// identical datasets, the property the exp runners rely on when they
// rebuild instances per mode.
func TestBuildersDeterministic(t *testing.T) {
	for _, name := range Order {
		a := Registry[name](1)
		b := Registry[name](1)
		for arr := range a.arrays {
			n := a.Len(arr)
			if n != b.Len(arr) {
				t.Fatalf("%s/%s: lengths differ", name, arr)
			}
			step := n/64 + 1
			for i := 0; i < n; i += step {
				if a.Read(arr, i) != b.Read(arr, i) {
					t.Fatalf("%s/%s[%d]: %d != %d", name, arr, i, a.Read(arr, i), b.Read(arr, i))
				}
			}
		}
	}
}

// TestIndirectTargetsExceedIterations: the padded layouts keep
// indirect-target footprints large relative to iteration counts (the
// cache-exceeding regime of the paper; see EXPERIMENTS.md).
func TestIndirectTargetsExceedIterations(t *testing.T) {
	targets := map[string]string{
		"IS": "A", "BFS": "A", "BC": "A", "PR": "A",
		"PRH": "A", "PRO": "Next", "GZZ": "A", "GZP": "A",
		"GZZI": "A", "GZPI": "A", "XRAGE": "A", "CG": "X",
	}
	for name, arr := range targets {
		inst := Registry[name](1)
		bytes := inst.Len(arr) * 8
		// PR is the smallest (its inner loop multiplies iterations);
		// everything is >= 256 KB at scale 1, i.e. multi-MB at the
		// benchmark scales.
		if bytes < 256<<10 {
			t.Errorf("%s: target %s only %d KB at scale 1; benchmark scales must exceed the LLC", name, arr, bytes>>10)
		}
	}
}

// TestCSRUniformGolden pins the uniform generator's exact output for a
// fixed seed: the skewed-graph work must leave the §5 construction
// byte-for-byte unchanged (every paper workload's dataset derives from
// it).
func TestCSRUniformGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	offsets, edges := csrUniform(rng, 8, 4)
	wantOff := []uint64{0, 6, 9, 14, 16, 22, 23, 30, 35}
	wantEdges := []uint64{0, 3, 1, 7, 7, 4, 4, 5, 4, 1, 7, 0, 2, 6, 4, 3, 0, 5, 2, 7, 3, 7, 6, 6, 3, 2, 5, 2, 6, 7, 4, 3, 3, 3, 0}
	for i, w := range wantOff {
		if offsets[i] != w {
			t.Fatalf("offsets[%d] = %d, want %d (uniform generator changed!)", i, offsets[i], w)
		}
	}
	for i, w := range wantEdges {
		if edges[i] != w {
			t.Fatalf("edges[%d] = %d, want %d (uniform generator changed!)", i, edges[i], w)
		}
	}
}

// TestCSRUniformStatistics: the §5 construction's mean degree is ~deg
// (degrees uniform in [1, 2*deg)) and edge targets are uniform over
// the nodes — checked directly rather than through the builders.
func TestCSRUniformStatistics(t *testing.T) {
	const n, deg = 16384, 15
	rng := rand.New(rand.NewSource(1234))
	offsets, edges := csrUniform(rng, n, deg)
	mean := float64(offsets[n]) / n
	if mean < float64(deg)-0.5 || mean > float64(deg)+0.5 {
		t.Fatalf("mean degree %.2f, want ~%d", mean, deg)
	}
	const buckets = 16
	counts := make([]float64, buckets)
	for _, e := range edges {
		counts[int(e)*buckets/n]++
	}
	want := float64(len(edges)) / buckets
	for b, c := range counts {
		if c < want*0.92 || c > want*1.08 {
			t.Fatalf("edge-target bucket %d holds %.0f of ~%.0f: not uniform", b, c, want)
		}
	}
}

// TestXRAGEIndicesRunLengths: the generator's runs are 4-15 elements
// with strides 1-3 separated by random jumps — checked on the raw
// stream under a fixed seed (the builder-level check below only sees
// the stride fraction).
func TestXRAGEIndicesRunLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n, mod = 65536, 1 << 20
	b := xrageIndices(rng, n, mod)
	var runs []int
	run := 1
	for i := 1; i < n; i++ {
		d := int64(b[i]) - int64(b[i-1])
		if d >= 1 && d <= 3 {
			run++
		} else {
			runs = append(runs, run)
			run = 1
		}
	}
	runs = append(runs, run)
	sum := 0
	for _, r := range runs {
		sum += r
		if r > 15 {
			t.Fatalf("run of %d strided accesses; generator promises <= 15", r)
		}
	}
	meanRun := float64(sum) / float64(len(runs))
	// run = 4 + Intn(12): mean 9.5, shortened slightly where a jump
	// happens to continue the stride range.
	if meanRun < 7 || meanRun > 12 {
		t.Fatalf("mean run length %.1f, want ~9.5", meanRun)
	}
}

// TestXRAGERunStructure: the synthetic trace has short strided runs.
func TestXRAGERunStructure(t *testing.T) {
	inst := Registry["XRAGE"](1)
	n := inst.Len("B")
	small, total := 0, 0
	for i := 1; i < n; i++ {
		d := int64(inst.Read("B", i)) - int64(inst.Read("B", i-1))
		total++
		if d >= 1 && d <= 3 {
			small++
		}
	}
	frac := float64(small) / float64(total)
	if frac < 0.5 || frac > 0.99 {
		t.Fatalf("strided-run fraction %.2f; want mostly short strides with jumps", frac)
	}
}
