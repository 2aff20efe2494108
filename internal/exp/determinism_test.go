package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The parallel runner's contract is that dispatch order must not leak
// into results: every run assembles a private system and every
// workload builder seeds its own RNG, so serial and parallel
// evaluations — and any two runs of either — must produce
// byte-identical rows. These tests pin that contract, plus fixed-seed
// golden metrics so a regression in cycles/BW/RBH fails `go test`
// instead of only shifting a benchmark table.

// detNames is the workload subset the determinism tests run on: an
// RMW kernel, an indirect-gather kernel, a scatter kernel, and the
// skewed-graph push traversal (power-law degrees + community
// clustering, the structured generator from internal/workloads).
var detNames = []string{"IS", "GZZ", "XRAGE", "graph.pr.push"}

// resultKey renders every measured field of a Result, plus the full
// statistics registry, at full precision — two Results with equal keys
// are byte-identical for every consumer in this package.
func resultKey(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%v|%d|%.17g|%.17g|%.17g|%.17g|%.17g\n",
		r.Workload, r.Mode, r.Cycles, r.Instructions, r.BWUtil, r.RBH, r.Occupancy, r.MPKI)
	b.WriteString(r.Stats.String())
	return b.String()
}

func rowsKey(rows []MainRow) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(resultKey(r.Base))
		b.WriteString(resultKey(r.DX))
		if r.HasDMP {
			b.WriteString(resultKey(r.DMP))
		}
	}
	return b.String()
}

// evalAt runs the tiny-scale main evaluation at the given worker
// count.
func evalAt(t *testing.T, jobs int) []MainRow {
	t.Helper()
	rows, err := Runner{Workers: jobs}.MainEvaluation(1, detNames, true)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestMainEvaluationSerialParallelIdentical compares the references,
// each simulated alone, with a fresh evaluation on four workers.
func TestMainEvaluationSerialParallelIdentical(t *testing.T) {
	serial, sk := refRows(t, detNames, true)
	parallel := evalAt(t, 4)
	requireSame(t, "parallel MainEvaluation rows", sk, rowsKey(parallel))
	// Figures rendered from the rows must also match byte for byte.
	for i, pair := range [][2]*Series{
		{Fig9(serial), Fig9(parallel)},
		{Fig10(serial), Fig10(parallel)},
		{Fig11(serial), Fig11(parallel)},
		{Fig12(serial), Fig12(parallel)},
	} {
		requireSame(t, fmt.Sprintf("figure %d from parallel rows", i+9), pair[0].String(), pair[1].String())
	}
}

// TestMainEvaluationRunToRunDeterministic runs the evaluation again,
// later in the same process, and compares it with the references.
func TestMainEvaluationRunToRunDeterministic(t *testing.T) {
	_, first := refRows(t, detNames, true)
	requireSame(t, "second MainEvaluation", first, rowsKey(evalAt(t, 4)))
}

// golden holds the fixed-seed scale-1 metrics for the representative
// workloads in detNames. Cycle counts are exact; rates are checked to 1e-12. If an
// intentional model change moves these, rerun the evaluation and
// update the table (the values print on failure).
var goldens = map[string]struct {
	baseCycles, dxCycles uint64
	baseInstr, dxInstr   float64
	baseBW, dxBW         float64
	baseRBH, dxRBH       float64
}{
	"IS":            {1047768, 191827, 131084, 49, 0.062063357537164715, 0.9082397589482135, 0.23017776957618258, 0.8724859950408669},
	"GZZ":           {913422, 169305, 237784, 53, 0.10939959843314481, 0.9459906440485754, 0.15138900008005765, 0.9476023976023976},
	"XRAGE":         {1155378, 243975, 327692, 65, 0.127791943415921, 0.9195078164066662, 0.060603597745990466, 0.8825333428428785},
	"graph.pr.push": {1458235, 1399951, 653877, 35131, 0.058893154322282981, 0.52706168077431337, 0.095714951094550541, 0.84866505841216489},
}

func TestGoldenMetrics(t *testing.T) {
	rows, _ := refRows(t, detNames, false)
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	for _, r := range rows {
		want, ok := goldens[r.Workload]
		if !ok {
			t.Fatalf("no golden for %s", r.Workload)
		}
		if uint64(r.Base.Cycles) != want.baseCycles || uint64(r.DX.Cycles) != want.dxCycles {
			t.Errorf("%s cycles: base=%d dx=%d, golden base=%d dx=%d",
				r.Workload, r.Base.Cycles, r.DX.Cycles, want.baseCycles, want.dxCycles)
		}
		if r.Base.Instructions != want.baseInstr || r.DX.Instructions != want.dxInstr {
			t.Errorf("%s instructions: base=%v dx=%v, golden base=%v dx=%v",
				r.Workload, r.Base.Instructions, r.DX.Instructions, want.baseInstr, want.dxInstr)
		}
		if !approx(r.Base.BWUtil, want.baseBW) || !approx(r.DX.BWUtil, want.dxBW) {
			t.Errorf("%s BW util: base=%v dx=%v, golden base=%v dx=%v",
				r.Workload, r.Base.BWUtil, r.DX.BWUtil, want.baseBW, want.dxBW)
		}
		if !approx(r.Base.RBH, want.baseRBH) || !approx(r.DX.RBH, want.dxRBH) {
			t.Errorf("%s RBH: base=%v dx=%v, golden base=%v dx=%v",
				r.Workload, r.Base.RBH, r.DX.RBH, want.baseRBH, want.dxRBH)
		}
	}
}
