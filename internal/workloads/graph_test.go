package workloads

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dx100/internal/dx100"
	"dx100/internal/loopir"
)

var graphNames = []string{"graph.pr.push", "graph.pr.pull", "graph.bfs.push", "graph.bfs.pull"}

// TestGraphWorkloadsBuildAndMatchInterpreter: every graph.* variant is
// registered, legal, and produces the reference interpreter's memory
// state when compiled for DX100 — the same verification flow the 12
// paper workloads go through.
func TestGraphWorkloadsBuildAndMatchInterpreter(t *testing.T) {
	for _, name := range graphNames {
		name := name
		t.Run(name, func(t *testing.T) {
			b, ok := Registry[name]
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			inst := b(1)
			if inst.Name != name {
				t.Errorf("instance name %q, want %q", inst.Name, name)
			}
			if inst.DMP == nil {
				t.Error("nil DMP func")
			}
			for _, k := range inst.Kernels {
				if err := loopir.Legal(k); err != nil {
					t.Fatalf("illegal: %v", err)
				}
			}
			want := interpretInstance(t, inst)
			m := dx100.NewMachine(inst.Space, dx100.DefaultMachineConfig())
			for ki, k := range inst.Kernels {
				c, err := loopir.Compile(k, inst.Binder, m.Config().TileElems)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				if err := c.Run(m, inst.ChunkFor(ki, m.Config().TileElems)); err != nil {
					t.Fatalf("run: %v", err)
				}
			}
			compareState(t, inst, want, name)
		})
	}
}

// degreesOf recovers the sorted-descending degree sequence from a CSR
// offset array.
func degreesOf(offsets []uint64) []float64 {
	d := make([]float64, len(offsets)-1)
	for i := range d {
		d[i] = float64(offsets[i+1] - offsets[i])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	return d
}

// TestSkewedDegreeDistributionMatchesExponent: the empirical degree
// sequence of the power-law CSR follows the requested tail exponent.
// On a Zipf plot (log degree vs log popularity rank) a power law with
// tail exponent alpha is a line of slope -1/(alpha-1); we fit the
// mid-rank band (clear of the tile-safety hub cap at the head and of
// the round-to-1 floor in the deep tail) by least squares and require
// the fitted slope within 15% and near-perfect linearity — a KS-style
// goodness check that also rejects the uniform distribution outright.
func TestSkewedDegreeDistributionMatchesExponent(t *testing.T) {
	const n, deg = 32768, 15
	for _, alpha := range []float64{1.8, 2.0, 2.5, 3.0} {
		rng := rand.New(rand.NewSource(7))
		offsets, _ := csrSkewed(rng, n, deg, alpha, 0, 256)
		d := degreesOf(offsets)
		slope, r2 := zipfFit(d, 64, 4096)
		want := -1 / (alpha - 1)
		if math.Abs(slope-want) > 0.15*math.Abs(want) {
			t.Errorf("alpha=%.1f: Zipf slope %.3f, want %.3f +/- 15%%", alpha, slope, want)
		}
		if r2 < 0.97 {
			t.Errorf("alpha=%.1f: Zipf plot R^2 = %.4f, want >= 0.97 (not a power law?)", alpha, r2)
		}
		// Head concentration: the top 1% of nodes must hold a large
		// edge share under skew...
		if share := headShare(d, n/100); share < 0.08 {
			t.Errorf("alpha=%.1f: top 1%% of nodes hold only %.1f%% of edges", alpha, 100*share)
		}
	}
	// ...and roughly their proportional 1% share when uniform.
	rng := rand.New(rand.NewSource(7))
	offsets, _ := csrSkewed(rng, n, deg, 0, 0, 256)
	if share := headShare(degreesOf(offsets), n/100); share > 0.03 {
		t.Errorf("uniform: top 1%% of nodes hold %.1f%% of edges, want ~2%%", 100*share)
	}
}

// zipfFit least-squares fits log(degree) on log(rank) over the rank
// band [lo, hi) and returns the slope and R^2.
func zipfFit(sorted []float64, lo, hi int) (slope, r2 float64) {
	var xs, ys []float64
	for r := lo; r < hi && r < len(sorted); r++ {
		if sorted[r] <= 0 {
			break
		}
		xs = append(xs, math.Log(float64(r+1)))
		ys = append(ys, math.Log(sorted[r]))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	slope = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	r := (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
	return slope, r * r
}

// headShare returns the edge fraction held by the top k nodes of a
// sorted-descending degree sequence.
func headShare(sorted []float64, k int) float64 {
	var top, total float64
	for i, d := range sorted {
		total += d
		if i < k {
			top += d
		}
	}
	return top / total
}

// TestSkewedClusteringFraction: with clustering c, the fraction of
// edges landing inside the source's community block is c plus the
// small background rate (the hub permutation spreads rank weight
// evenly over blocks, so the background is ~block/n).
func TestSkewedClusteringFraction(t *testing.T) {
	const n, deg, block = 8192, 15, 256
	inBlock := func(clustering float64) float64 {
		rng := rand.New(rand.NewSource(7))
		offsets, edges := csrSkewed(rng, n, deg, 2.0, clustering, block)
		hits, e := 0, 0
		for v := 0; v < n; v++ {
			for ; e < int(offsets[v+1]); e++ {
				if int(edges[e])/block == v/block {
					hits++
				}
			}
		}
		return float64(hits) / float64(len(edges))
	}
	if f := inBlock(0.5); f < 0.48 || f > 0.58 {
		t.Errorf("clustering=0.5: in-block fraction %.3f, want ~0.5-0.55", f)
	}
	if f := inBlock(0); f > 0.10 {
		t.Errorf("clustering=0: in-block fraction %.3f, want background ~%.3f", f, float64(block)/n)
	}
}

// TestGraphByteDeterministic: equal configs build byte-identical
// instances — the property every rebuild site (per-mode runs, -jobs
// workers, checkpoint restore) relies on. Checked at a
// non-default sweep point, since the registered defaults are already
// covered by the builder-determinism sweep.
func TestGraphByteDeterministic(t *testing.T) {
	cfg := GraphConfig{Kernel: "pr", Dir: "pull", Exponent: 2.4, Clustering: 0.4}
	a := BuildGraph(cfg, 1)
	b := BuildGraph(cfg, 1)
	if a.Name != b.Name {
		t.Fatalf("names differ: %q vs %q", a.Name, b.Name)
	}
	for arr := range a.arrays {
		if a.Len(arr) != b.Len(arr) {
			t.Fatalf("%s: lengths differ", arr)
		}
		for i := 0; i < a.Len(arr); i++ {
			if a.Read(arr, i) != b.Read(arr, i) {
				t.Fatalf("%s[%d]: %d != %d", arr, i, a.Read(arr, i), b.Read(arr, i))
			}
		}
	}
	if a.Name == "graph.pr.pull" {
		t.Error("non-default config must not reuse the registry name")
	}
}

// TestGraphBuildersDeterministic extends the registered-builder
// determinism sweep to the graph.* names.
func TestGraphBuildersDeterministic(t *testing.T) {
	for _, name := range graphNames {
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

// TestGraphHubDegreeCapped: the tile-safety cap holds for aggressive
// skew, so ChunkFor always yields a compilable chunk at the default
// tile size.
func TestGraphHubDegreeCapped(t *testing.T) {
	for _, alpha := range []float64{1.5, 2.0} {
		rng := rand.New(rand.NewSource(7))
		offsets, _ := csrSkewed(rng, 32768, 15, alpha, 0, 256)
		if m := maxRangeLen(offsets); m > maxHubDegree {
			t.Errorf("alpha=%.1f: max degree %d exceeds cap %d", alpha, m, maxHubDegree)
		}
	}
}
