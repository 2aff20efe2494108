// Package sample implements the sampled-simulation subsystem: a
// functional execution mode that fast-forwards the machine between
// detailed measurement windows (SMARTS-style interval sampling), and
// the confidence-interval arithmetic the sampler reports with.
//
// The functional mode exploits the simulator's core design split:
// data lives in the shared memspace (mutated only by effect emitters
// and the DX100 functional machine), while the timing components —
// caches, TLBs, prefetchers, DRAM — track presence and timing only.
// Fast-forwarding therefore needs no event simulation at all: it
// interprets µop streams in program order, applying each op's
// architectural side effects through the components' functional Touch
// paths (cache tag/LRU state, prefetcher training, accelerator
// instruction execution) and skipping everything cycle-shaped.
//
// Warm performs the §6.1 All-Hit LLC warm-up through the same Touch
// paths; the interval sampler that alternates the two modes is wired
// up in internal/exp.
package sample

import (
	"math"

	"dx100/internal/cache"
	"dx100/internal/cpu"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// Executor drives functional fast-forward phases over the machine's
// cores. The engine must be quiescent (no pending events) whenever a
// phase runs: the executor asserts the cores hand over cleanly and
// panics otherwise, because a half-in-flight machine cannot be
// advanced functionally without losing state.
type Executor struct {
	Eng   *sim.Engine
	Cores []*cpu.Core
	// Drain, when non-nil, functionally executes every instruction
	// queued at the accelerators and returns how many it drained. The
	// executor calls it whenever a core blocks on a barrier, since
	// accelerator progress (tile ready bits, queue credits, retirement
	// counts) is what core-side barrier predicates poll.
	Drain func() int
}

// Pause stops fetch on every core. The caller then runs the engine to
// quiescence (every in-flight op completes; no functional work
// happens) before calling Advance.
func (x *Executor) Pause() {
	for _, c := range x.Cores {
		c.Pause()
	}
}

// Resume restarts fetch on every core; the engine's next detailed
// window picks them back up (tickers are stepped every cycle).
func (x *Executor) Resume() {
	for _, c := range x.Cores {
		c.Resume()
	}
}

// Advance runs one functional phase: each core executes up to quota
// instruction weight with architectural side effects only, no cycles.
// Parked window entries left from the detailed drain are consumed
// first and count toward the quota. The phase ends when every core
// has reached its quota, finished its stream, or blocked on a barrier
// no amount of functional progress can satisfy this phase (a peer
// that already reached quota). It returns the total weight executed
// and whether every stream has finished.
func (x *Executor) Advance(quota int) (executed int, allDone bool) {
	now := x.Eng.Now()
	drain := x.drainAccels
	used := make([]int, len(x.Cores))
	for {
		progress := false
		for i, c := range x.Cores {
			if used[i] >= quota || c.Done() {
				continue
			}
			w := c.RunFunctional(quota-used[i], now, drain)
			used[i] += w
			executed += w
			if w > 0 {
				progress = true
			}
		}
		if !progress {
			// Every unfinished core has reached its quota, finished, or is
			// barrier-blocked with the accelerators drained. A blocked core
			// waits on work from a peer that reached its quota, so the next
			// detailed window (or functional phase) resolves it; a genuine
			// program deadlock surfaces identically in a full-detail run.
			break
		}
	}
	allDone = true
	for _, c := range x.Cores {
		if !c.Done() {
			allDone = false
			break
		}
	}
	return executed, allDone
}

// drainAccels runs the accelerator drain hook when a barrier blocks,
// reporting whether it made progress worth re-polling the barrier for.
func (x *Executor) drainAccels() bool {
	if x.Drain == nil {
		return false
	}
	return x.Drain() > 0
}

// Range is one physical address range for functional cache warming.
type Range struct{ Lo, Hi memspace.PAddr }

// Warm streams every line of each range through the level
// functionally — the §6.1 All-Hit warm-up, with no events or cycles.
func Warm(l cache.Level, ranges []Range) {
	for _, r := range ranges {
		for a := memspace.LineAddr(r.Lo); a < r.Hi; a += memspace.LineSize {
			cache.TouchLevel(l, a, cache.Load)
		}
	}
}

// CI is a mean with a symmetric 95% confidence half-interval over n
// samples.
type CI struct {
	Mean float64 `json:"mean"`
	Half float64 `json:"half"` // 95% half-width: mean ± half
	N    int     `json:"n"`
}

// Summarize folds interval samples into a CI using the normal
// approximation (z = 1.96), the standard SMARTS treatment for the
// 30+ windows a sampled run takes. Fewer than two samples yield a
// zero interval.
func Summarize(xs []float64) CI {
	n := len(xs)
	if n == 0 {
		return CI{}
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(n)
	if n < 2 {
		return CI{Mean: mean, N: n}
	}
	ss := 0.0
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return CI{Mean: mean, Half: 1.96 * sd / math.Sqrt(float64(n)), N: n}
}
