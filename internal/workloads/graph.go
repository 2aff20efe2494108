package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"dx100/internal/dx100"
	"dx100/internal/loopir"
	"dx100/internal/memspace"
	"dx100/internal/prefetch"
)

// This file builds the skewed-graph workload family: GAP-style CSR
// traversals over graphs whose degree distribution, community
// structure and traversal direction are configurable, so
// index-distribution shape becomes a sweep axis (following
// "Exploring Memory Access Patterns for Graph Processing
// Accelerators"). The paper's own GAP rows (BFS/PR/BC in gap.go) stay
// uniform, matching §5; these variants explore where that assumption
// matters.

// Graph generator defaults. The registered graph.* workloads use
// exactly these; the sweep drivers construct other exponents through
// BuildGraph directly.
const (
	DefaultSkewExponent = 2.0
	DefaultClustering   = 0.25
	defaultGraphNodes   = 8192
	defaultGraphDeg     = 15
	defaultGraphBlock   = 256
	defaultGraphSeed    = 801
	// maxHubDegree caps the heaviest nodes' degree so one outer
	// iteration's fused inner range always fits a DX100 tile
	// (ChunkFor needs MaxRange+2 <= tileElems even at chunk 1).
	maxHubDegree = 2048
	// hubDegFactor defines the hub set for hit attribution: a node is a
	// hub when its out-degree is at least hubDegFactor times the mean.
	// At the default shape (alpha 2.0, deg 15) this marks ~2-3% of
	// nodes, which carry the bulk of the indirect traffic.
	hubDegFactor = 4
)

// GraphConfig selects one member of the skewed-graph workload family.
// The zero value of every field means "default"; Exponent 0 selects
// the uniform degree distribution (the GAP §5 setup) rather than a
// power law.
type GraphConfig struct {
	Kernel     string  // "pr" or "bfs"
	Dir        string  // "push" or "pull"
	Exponent   float64 // power-law tail exponent alpha (>1); 0 = uniform
	Clustering float64 // [0,1): fraction of edges kept inside the source's community block
	Nodes      int     // nodes per scale unit (default 8192)
	Deg        int     // mean degree (default 15)
	Block      int     // community block size in nodes (default 256)
	Seed       int64   // RNG seed (default 801)
}

func (cfg *GraphConfig) fillDefaults() {
	if cfg.Nodes <= 0 {
		cfg.Nodes = defaultGraphNodes
	}
	if cfg.Deg <= 0 {
		cfg.Deg = defaultGraphDeg
	}
	if cfg.Block <= 0 {
		cfg.Block = defaultGraphBlock
	}
	if cfg.Seed == 0 {
		cfg.Seed = defaultGraphSeed
	}
}

// name renders the instance name: the registry name for the default
// shape, an explicit [x=…,c=…] suffix otherwise, so figure labels and
// Result.Workload distinguish sweep points.
func (cfg GraphConfig) name() string {
	base := "graph." + cfg.Kernel + "." + cfg.Dir
	if cfg.Exponent == DefaultSkewExponent && cfg.Clustering == DefaultClustering &&
		cfg.Nodes == defaultGraphNodes && cfg.Deg == defaultGraphDeg &&
		cfg.Block == defaultGraphBlock && cfg.Seed == defaultGraphSeed {
		return base
	}
	return fmt.Sprintf("%s[x=%.2f,c=%.2f]", base, cfg.Exponent, cfg.Clustering)
}

// The four default-shape variants are addressable through the
// Registry (not in Order — they are not Figure 9 rows), so dx100sim
// -run, dx100d jobs and the CI smoke can name them.
func init() {
	for _, kernel := range []string{"pr", "bfs"} {
		for _, dir := range []string{"push", "pull"} {
			kernel, dir := kernel, dir
			register("graph."+kernel+"."+dir, func(scale int) *Instance {
				return BuildGraph(GraphConfig{
					Kernel: kernel, Dir: dir,
					Exponent: DefaultSkewExponent, Clustering: DefaultClustering,
				}, scale)
			})
		}
	}
}

// csrSkewed builds a CSR graph whose degree sequence follows a power
// law with the given tail exponent (Chung-Lu style: the degree of the
// node at popularity rank r is proportional to (r+1)^(-1/(exponent-1)),
// and edge targets are drawn with probability proportional to the same
// weights, so in-degrees are skewed too). exponent 0 falls back to the
// uniform construction csrUniform uses. clustering is the probability
// an edge target is redirected uniformly into the source's community
// block of `block` nodes. Hub identities are spread over the node ID
// space by a seeded permutation, so skew is a property of the access
// *distribution*, not of a contiguous hot address range. Degrees are
// capped at maxHubDegree to keep every inner range tile-sized; the
// mass lost to the cap is redistributed over the uncapped nodes so the
// mean degree stays close to deg.
func csrSkewed(rng *rand.Rand, n, deg int, exponent, clustering float64, block int) (offsets, edges []uint64) {
	if block > n {
		block = n
	}
	perm := rng.Perm(n) // rank r -> node perm[r]
	m := n * deg
	degByNode := make([]int, n)
	var weights, cum []float64
	if exponent > 1 {
		weights = make([]float64, n)
		p := 1 / (exponent - 1)
		sum := 0.0
		for r := range weights {
			weights[r] = math.Pow(float64(r+1), -p)
			sum += weights[r]
		}
		// Target degrees, capped; one redistribution pass returns the
		// capped-off mass to the tail.
		capped, cappedMass := 0, 0.0
		for r := range weights {
			d := int(math.Round(float64(m) * weights[r] / sum))
			if d > maxHubDegree {
				d = maxHubDegree
			}
			if d < 1 {
				d = 1
			}
			degByNode[perm[r]] = d
			if d == maxHubDegree {
				capped++
				cappedMass += weights[r]
			}
		}
		if capped > 0 && sum > cappedMass {
			scale := (float64(m) - float64(capped*maxHubDegree)) / (float64(m) * (1 - cappedMass/sum))
			for r := capped; r < n; r++ {
				d := int(math.Round(float64(m) * weights[r] / sum * scale))
				if d > maxHubDegree {
					d = maxHubDegree
				}
				if d < 1 {
					d = 1
				}
				degByNode[perm[r]] = d
			}
		}
		cum = make([]float64, n)
		run := 0.0
		for r := range weights {
			run += weights[r]
			cum[r] = run
		}
	} else {
		for v := range degByNode {
			degByNode[v] = 1 + rng.Intn(2*deg-1)
		}
	}
	offsets = make([]uint64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + uint64(degByNode[v])
	}
	edges = make([]uint64, offsets[n])
	total := cum != nil
	e := 0
	for v := 0; v < n; v++ {
		blockLo := (v / block) * block
		blockN := block
		if blockLo+blockN > n {
			blockN = n - blockLo
		}
		for d := 0; d < degByNode[v]; d++ {
			var t int
			if clustering > 0 && rng.Float64() < clustering {
				t = blockLo + rng.Intn(blockN)
			} else if total {
				// Inverse-CDF draw over the rank weights.
				x := rng.Float64() * cum[n-1]
				lo, hi := 0, n-1
				for lo < hi {
					mid := (lo + hi) / 2
					if cum[mid] < x {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				t = perm[lo]
			} else {
				t = rng.Intn(n)
			}
			edges[e] = uint64(t)
			e++
		}
	}
	return offsets, edges
}

// BuildGraph generates one skewed-graph workload instance. Everything
// is derived from the seeded RNG, so equal configs build byte-identical
// instances (TestGraphByteDeterministic pins this).
func BuildGraph(cfg GraphConfig, scale int) *Instance {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := cfg.Nodes * scale
	// Node records are padded (4 slots per node) like the uniform GAP
	// rows, so the indirectly indexed per-node arrays exceed the LLC.
	target := 4 * nodes
	offsets, rawEdges := csrSkewed(rng, nodes, cfg.Deg, cfg.Exponent, cfg.Clustering, cfg.Block)
	nEdges := int(offsets[nodes])
	edges := make([]uint64, nEdges)
	for i, v := range rawEdges {
		edges[i] = 4 * v
	}
	var inst *Instance
	switch cfg.Kernel {
	case "pr":
		inst = buildGraphPR(cfg, rng, nodes, target, offsets, edges)
	case "bfs":
		inst = buildGraphBFS(cfg, rng, nodes, target, offsets, edges)
	default:
		panic(fmt.Sprintf("workloads: unknown graph kernel %q", cfg.Kernel))
	}
	// Hub/tail hit attribution over the indirectly-indexed per-node
	// arrays (4 padded slots each): profiled runs use it to measure
	// whether hub locality is what makes the cache hierarchy
	// competitive under skew (the skew-collapse audit in ROADMAP).
	// Uniform graphs have no hubs and install nothing.
	if hub := hubNodes(offsets, uint64(hubDegFactor*cfg.Deg)); hub != nil {
		inst.markHotClass(hotArrays(cfg), hub, 4)
	}
	return inst
}

// hotArrays names the per-node arrays the kernel indexes indirectly —
// the footprint whose cache behavior the hub/tail probes attribute.
func hotArrays(cfg GraphConfig) []string {
	switch {
	case cfg.Kernel == "pr" && cfg.Dir == "pull":
		return []string{"C"}
	case cfg.Kernel == "pr":
		return []string{"A"}
	case cfg.Kernel == "bfs" && cfg.Dir == "pull":
		return []string{"D"}
	default:
		return []string{"D", "A"}
	}
}

// hubNodes marks the nodes whose degree reaches minDeg; nil when the
// graph has none (the uniform shapes).
func hubNodes(offsets []uint64, minDeg uint64) []bool {
	hub := make([]bool, len(offsets)-1)
	any := false
	for v := range hub {
		if offsets[v+1]-offsets[v] >= minDeg {
			hub[v] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return hub
}

// buildGraphPR builds the PageRank contribution pass over the skewed
// CSR. push scatters RMW A[B[j]] += C[i] (atomics on multi-core
// baselines); pull gathers Update Y[i] += C[B[j]] with no atomics —
// the in-neighbor accumulation direction of GAP's pull PR.
func buildGraphPR(cfg GraphConfig, rng *rand.Rand, nodes, target int, offsets, edges []uint64) *Instance {
	nEdges := len(edges)
	var k *loopir.Kernel
	pull := cfg.Dir == "pull"
	if pull {
		k = &loopir.Kernel{
			Name: "graph.pr.pull",
			Arrays: map[string]loopir.ArrayInfo{
				"H": {DType: dx100.U64, Len: nodes + 1},
				"B": {DType: dx100.U64, Len: nEdges},
				"C": {DType: dx100.F64, Len: target},
				"Y": {DType: dx100.F64, Len: nodes},
			},
			Var: "i", Lo: loopir.Imm{Val: 0}, Hi: loopir.Imm{Val: int64(nodes)},
			Body: []loopir.Stmt{
				loopir.Inner{
					Var: "j",
					Lo:  loopir.Load{Array: "H", Idx: loopir.Var{Name: "i"}},
					Hi:  loopir.Load{Array: "H", Idx: loopir.Bin{Op: dx100.OpAdd, L: loopir.Var{Name: "i"}, R: loopir.Imm{Val: 1}}},
					Body: []loopir.Stmt{
						loopir.Update{Array: "Y", Idx: loopir.Var{Name: "i"}, Op: dx100.OpAdd,
							Val: loopir.Load{Array: "C", Idx: loopir.Load{Array: "B", Idx: loopir.Var{Name: "j"}}}},
					},
				},
			},
		}
	} else {
		k = &loopir.Kernel{
			Name: "graph.pr.push",
			Arrays: map[string]loopir.ArrayInfo{
				"H": {DType: dx100.U64, Len: nodes + 1},
				"B": {DType: dx100.U64, Len: nEdges},
				"C": {DType: dx100.F64, Len: nodes},
				"A": {DType: dx100.F64, Len: target},
			},
			Var: "i", Lo: loopir.Imm{Val: 0}, Hi: loopir.Imm{Val: int64(nodes)},
			Body: []loopir.Stmt{
				loopir.Inner{
					Var: "j",
					Lo:  loopir.Load{Array: "H", Idx: loopir.Var{Name: "i"}},
					Hi:  loopir.Load{Array: "H", Idx: loopir.Bin{Op: dx100.OpAdd, L: loopir.Var{Name: "i"}, R: loopir.Imm{Val: 1}}},
					Body: []loopir.Stmt{
						loopir.Update{Array: "A", Idx: loopir.Load{Array: "B", Idx: loopir.Var{Name: "j"}},
							Op: dx100.OpAdd, Val: loopir.Load{Array: "C", Idx: loopir.Var{Name: "i"}}},
					},
				},
			},
		}
	}
	sp := memspace.New()
	pat := "RMW A[B[j]], j = H[i] to H[i+1] (skewed)"
	if pull {
		pat = "LD C[B[j]], j = H[i] to H[i+1] (skewed, pull)"
	}
	inst := newInstance(cfg.name(), pat, sp, []*loopir.Kernel{k})
	inst.setU64("H", offsets)
	inst.setU64("B", edges)
	if pull {
		inst.setU64("C", f64Bits(smallInts(rng, target, 64)))
		inst.Consume = true
		inst.DMP = func() []prefetch.Pattern { return []prefetch.Pattern{inst.pattern("B", "C")} }
	} else {
		inst.setU64("C", f64Bits(smallInts(rng, nodes, 64)))
		inst.AtomicRMW = true
		inst.DMP = func() []prefetch.Pattern { return []prefetch.Pattern{inst.pattern("B", "A")} }
	}
	inst.MaxRange[0] = maxRangeLen(offsets)
	return inst
}

// buildGraphBFS builds one BFS step over the skewed CSR. push expands
// the frontier K: ST A[B[j]] if D[B[j]] < F over the indirect range
// loop j = H[K[i]] to H[K[i]+1]; pull is the bottom-up direction —
// every node counts in-frontier neighbours, Update Y[i] += 1 if
// D[B[j]] == F, no atomics.
func buildGraphBFS(cfg GraphConfig, rng *rand.Rand, nodes, target int, offsets, edges []uint64) *Instance {
	nEdges := len(edges)
	frontier := nodes / 8
	var k *loopir.Kernel
	pull := cfg.Dir == "pull"
	if pull {
		k = &loopir.Kernel{
			Name: "graph.bfs.pull",
			Arrays: map[string]loopir.ArrayInfo{
				"H": {DType: dx100.U64, Len: nodes + 1},
				"B": {DType: dx100.U64, Len: nEdges},
				"D": {DType: dx100.U64, Len: target},
				"Y": {DType: dx100.U64, Len: nodes},
			},
			Params: map[string]uint64{"F": 4},
			Var:    "i", Lo: loopir.Imm{Val: 0}, Hi: loopir.Imm{Val: int64(nodes)},
			Body: []loopir.Stmt{
				loopir.Inner{
					Var: "j",
					Lo:  loopir.Load{Array: "H", Idx: loopir.Var{Name: "i"}},
					Hi:  loopir.Load{Array: "H", Idx: loopir.Bin{Op: dx100.OpAdd, L: loopir.Var{Name: "i"}, R: loopir.Imm{Val: 1}}},
					Body: []loopir.Stmt{
						loopir.If{
							Cond: loopir.Bin{Op: dx100.OpEQ,
								L: loopir.Load{Array: "D", Idx: loopir.Load{Array: "B", Idx: loopir.Var{Name: "j"}}},
								R: loopir.Param{Name: "F"}},
							Body: []loopir.Stmt{
								loopir.Update{Array: "Y", Idx: loopir.Var{Name: "i"}, Op: dx100.OpAdd,
									Val: loopir.Imm{Val: 1}},
							},
						},
					},
				},
			},
		}
	} else {
		k = &loopir.Kernel{
			Name: "graph.bfs.push",
			Arrays: map[string]loopir.ArrayInfo{
				"H": {DType: dx100.U64, Len: nodes + 1},
				"K": {DType: dx100.U64, Len: frontier},
				"B": {DType: dx100.U64, Len: nEdges},
				"D": {DType: dx100.U64, Len: target},
				"A": {DType: dx100.U64, Len: target},
			},
			Params: map[string]uint64{"F": 4},
			Var:    "i", Lo: loopir.Imm{Val: 0}, Hi: loopir.Imm{Val: int64(frontier)},
			Body: []loopir.Stmt{
				loopir.Inner{
					Var: "j",
					Lo:  loopir.Load{Array: "H", Idx: loopir.Load{Array: "K", Idx: loopir.Var{Name: "i"}}},
					Hi: loopir.Load{Array: "H", Idx: loopir.Bin{Op: dx100.OpAdd,
						L: loopir.Load{Array: "K", Idx: loopir.Var{Name: "i"}}, R: loopir.Imm{Val: 1}}},
					Body: []loopir.Stmt{
						loopir.If{
							Cond: loopir.Bin{Op: dx100.OpLT,
								L: loopir.Load{Array: "D", Idx: loopir.Load{Array: "B", Idx: loopir.Var{Name: "j"}}},
								R: loopir.Param{Name: "F"}},
							Body: []loopir.Stmt{
								loopir.Store{Array: "A", Idx: loopir.Load{Array: "B", Idx: loopir.Var{Name: "j"}},
									Val: loopir.Imm{Val: 1}},
							},
						},
					},
				},
			},
		}
	}
	sp := memspace.New()
	pat := "ST A[B[j]] if (D[B[j]] < F), j = H[K[i]] to H[K[i]+1] (skewed)"
	if pull {
		pat = "RMW Y[i] if (D[B[j]] == F), j = H[i] to H[i+1] (skewed, pull)"
	}
	inst := newInstance(cfg.name(), pat, sp, []*loopir.Kernel{k})
	inst.setU64("H", offsets)
	inst.setU64("B", edges)
	inst.setU64("D", uniformIndices(rng, target, 8)) // depths 0..7
	if pull {
		inst.Consume = true
		inst.DMP = func() []prefetch.Pattern { return []prefetch.Pattern{inst.pattern("B", "D")} }
	} else {
		inst.setU64("K", uniformIndices(rng, frontier, nodes))
		inst.DMP = func() []prefetch.Pattern {
			return []prefetch.Pattern{inst.pattern("B", "D"), inst.pattern("B", "A")}
		}
	}
	inst.MaxRange[0] = maxRangeLen(offsets)
	return inst
}
