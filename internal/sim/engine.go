// Package sim provides the discrete-event simulation engine shared by
// every timing model in this repository: a cycle clock, an event wheel,
// and a set of tickers that are stepped once per cycle while active.
//
// The engine is deliberately hybrid. Components with dense per-cycle
// behaviour (DRAM channel state machines, the out-of-order core window,
// the DX100 functional units) register as Tickers. Components whose
// behaviour is sparse in time (a cache hit returning after a fixed
// latency, a message crossing the on-chip network) schedule one-shot
// events. This keeps the DRAM timing exact while making cache hops
// cheap.
//
// # Quiescence-aware fast-forward
//
// A cycle-by-cycle loop wastes most of its time ticking components
// that are provably idle: a DRAM channel waiting out tRP, a core
// stalled on a full ROB, a drained DX100 queue. Tickers that can bound
// their own idleness additionally implement WakeHinter; when every
// registered ticker hints, Run jumps the clock directly to the
// earliest of (a) the minimum hint and (b) the next pending event,
// instead of stepping through the dead cycles one by one. Tickers that
// maintain per-cycle statistics also implement CycleSkipper so the
// skipped cycles are accounted exactly; the contract is that a run
// with fast-forward enabled is byte-identical — final cycle count,
// every statistic — to the same run stepped cycle by cycle. Any
// ticker that does not implement WakeHinter (or declines to hint)
// disables jumping entirely, falling back to exact per-cycle stepping.
package sim

import (
	"fmt"
	"math/bits"

	"dx100/internal/obs"
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// NeverWake is the hint a quiescent component returns when only an
// external stimulus — an event callback, or another component acting
// first — can give it work. It never bounds a jump by itself.
const NeverWake = Cycle(^uint64(0))

// DefaultCheckEvery is the Check cadence used when Engine.CheckEvery
// is zero: frequent enough that cancellation lands within tens of
// milliseconds of wall clock on any model, rare enough to be free.
const DefaultCheckEvery = Cycle(1 << 20)

// Ticker is a component stepped once per cycle while the engine runs.
// Tick reports whether the component still has work outstanding; the
// engine stops when no ticker has work and no event is pending.
type Ticker interface {
	// Tick advances the component by one cycle. busy reports whether
	// the component has outstanding work (requests in flight,
	// instructions unretired, ...). A quiescent component keeps being
	// ticked — busy only feeds the global termination check.
	Tick(now Cycle) (busy bool)
}

// WakeHinter is an optional Ticker extension. NextWake returns the
// earliest future cycle at which ticking the component could change
// any state or statistic, given that no event fires and no other
// component acts before then. The engine only consults hints between
// full Steps, so the returned bound may assume the rest of the system
// is frozen: anything that would wake the component earlier — an event
// callback, a downstream queue draining — is either a pending event
// (which bounds every jump) or covered by that component's own hint.
//
// Rules for implementations:
//   - NextWake must be free of side effects; it may be called any
//     number of times (including zero) between Steps.
//   - Return NeverWake when only external stimulus can create work.
//   - Return now+1 when the component might make progress on the very
//     next cycle (or when it cannot cheaply tell). This is always
//     safe: it simply declines the jump for this cycle.
//   - A hint earlier than now+1 (stale/past) is treated as now+1; it
//     can never stall the clock or move it backwards.
//   - ok=false declines hinting entirely and disables fast-forward
//     while the ticker is registered.
//
// Components whose Tick mutates per-cycle statistics even while
// otherwise idle must also implement CycleSkipper, or their hints will
// silently skip those updates.
type WakeHinter interface {
	NextWake(now Cycle) (wake Cycle, ok bool)
}

// CycleSkipper is an optional Ticker extension for components whose
// Tick has per-cycle side effects (statistics counters) even when no
// state transition occurs. When the engine jumps the clock from
// cycle `from` to cycle `to`, it first calls SkipCycles(from, to) on
// every registered CycleSkipper: the component must account for the
// cycles strictly between from and to — exactly the cycles whose Tick
// calls were elided — such that the run's statistics end up
// byte-identical to a cycle-by-cycle run. SkipCycles must not mutate
// any other state and must not schedule events.
type CycleSkipper interface {
	SkipCycles(from, to Cycle)
}

// TickerFunc adapts a function to the Ticker interface. It does not
// hint, so registering one disables fast-forward; wrap long-lived
// per-cycle drivers in a named type implementing WakeHinter instead.
type TickerFunc func(now Cycle) bool

// Tick calls f.
func (f TickerFunc) Tick(now Cycle) bool { return f(now) }

// wheelSize is the timing wheel's horizon: an event due fewer than
// wheelSize cycles ahead goes on the wheel, a later one on the heap.
// The longest delay the models schedule is a DRAM read completion
// (52 cycles), so the heap holds only the rare long timer.
const wheelSize = 64

// event is a scheduled callback.
type event struct {
	at  Cycle
	seq uint64 // tie-breaker: FIFO among same-cycle events
	fn  func(now Cycle)
}

// before is the heap ordering: by cycle, then FIFO.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// ordered is the constraint for minHeap elements: a type that knows
// its own ordering.
type ordered[T any] interface {
	before(T) bool
}

// minHeap is a slice-backed binary min-heap. Unlike container/heap it
// is generic over the element type, so push and pop move concrete
// values without boxing them into an interface — zero allocations in
// steady state once the backing slice has grown to the high-water
// mark.
type minHeap[T ordered[T]] struct {
	items []T
}

func (h *minHeap[T]) len() int { return len(h.items) }

// push inserts x, sifting it up to its position.
func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].before(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the minimum element.
func (h *minHeap[T]) pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero // release references held by the vacated slot
	h.items = h.items[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].before(h.items[small]) {
			small = l
		}
		if r < n && h.items[r].before(h.items[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// Engine owns simulated time. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now Cycle
	seq uint64
	// wheel holds the events due within the next wheelSize-1 cycles,
	// one FIFO slot per cycle modulo wheelSize; bit i of wheelBits is
	// set while slot i is non-empty. An event due at cycle t sits in
	// slot t%wheelSize, which no other pending cycle shares, and a
	// slot appends in Schedule order, which is seq order.
	wheel     [wheelSize][]event
	wheelBits uint64
	// events holds the events due wheelSize or more cycles after the
	// cycle that scheduled them.
	events  minHeap[event]
	tickers []Ticker
	// hinters and skippers parallel tickers: the optional interfaces
	// are type-asserted once at Register so the per-cycle loop does no
	// dynamic checks. A nil hinter entry disables fast-forward.
	hinters  []WakeHinter
	skippers []CycleSkipper
	allHint  bool

	// MaxCycles aborts the run when reached; it guards against
	// deadlocked models in tests. Zero means no limit.
	MaxCycles Cycle
	// runBound, when non-zero, is the hard time ceiling installed by
	// RunUntil: clock jumps clamp to it, so the engine lands exactly on
	// the bound instead of overshooting by a jump-dependent amount.
	// That exactness is what makes time-bounded phases (the interval
	// sampler's detailed windows) byte-identical with fast-forward on
	// and off.
	runBound Cycle
	// DisableFastForward forces exact cycle-by-cycle stepping even
	// when every ticker hints. Results must be identical either way;
	// the equivalence tests pin that.
	DisableFastForward bool

	// Check, when non-nil, is invoked by Run at the first cycle
	// boundary at or after every CheckEvery simulated cycles — the
	// cooperative cancellation and progress hook. It runs after the
	// cycle's events and ticks, so it observes a consistent state. A
	// non-nil return aborts Run with that error. Check must not mutate
	// simulator state: the contract is that a run with a hook installed
	// is byte-identical to one without (fast-forward jumps do not stop
	// at check boundaries, so a check may fire late, never early).
	Check func(now Cycle) error
	// CheckEvery is the simulated-cycle interval between Check calls;
	// zero selects DefaultCheckEvery.
	CheckEvery Cycle

	// Trace, when non-nil, receives one obs.EvFastForward event per
	// clock jump. It is consulted only on the jump path — never in the
	// per-cycle Step loop — so a nil sink costs nothing (the engine
	// allocation benchmark pins this) and an attached sink cannot
	// perturb results (tracing is observation only).
	Trace *obs.Sink

	ffJumps   uint64
	ffSkipped uint64
	// declines parallels tickers: on how many visited cycles each was
	// the first hinter to decline the jump. Diagnostics only, like
	// ffJumps.
	declines []uint64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{allHint: true}
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// EventsPending reports whether any scheduled event is undelivered.
// The sampler's quiescence predicate polls it before a functional
// phase: an in-flight event cannot be fast-forwarded.
func (e *Engine) EventsPending() bool {
	return e.wheelBits != 0 || e.events.len() > 0
}

// FastForwarded reports how many clock jumps Run has taken and how
// many idle cycles they skipped in total — wall-clock diagnostics
// only; deliberately kept out of Stats so simulated results stay
// independent of the stepping strategy.
func (e *Engine) FastForwarded() (jumps, skippedCycles uint64) {
	return e.ffJumps, e.ffSkipped
}

// Visited reports how many cycles were stepped rather than jumped
// over. Only Step and fast-forward jumps move the clock, so Now() is
// always Visited() plus the skipped cycles.
func (e *Engine) Visited() uint64 { return uint64(e.now) - e.ffSkipped }

// Decline is one ticker's share of the visited cycles.
type Decline struct {
	Ticker Ticker
	// Cycles counts the visited cycles on which this ticker was the
	// first hinter to answer at or before now+1 (or to decline hinting):
	// the component that kept the clock stepping.
	Cycles uint64
}

// Declines reports, per registered ticker in registration order, how
// often it kept the clock stepping. A visited cycle that no hinter
// declined was bound by an event due next cycle, a run bound, or
// quiescence, and counts for no ticker. Diagnostics only, like
// FastForwarded.
func (e *Engine) Declines() []Decline {
	out := make([]Decline, len(e.tickers))
	for i, t := range e.tickers {
		out[i] = Decline{Ticker: t, Cycles: e.declines[i]}
	}
	return out
}

// Register adds a ticker stepped every cycle.
func (e *Engine) Register(t Ticker) {
	e.tickers = append(e.tickers, t)
	h, ok := t.(WakeHinter)
	if !ok {
		e.allHint = false
	}
	e.hinters = append(e.hinters, h)
	s, _ := t.(CycleSkipper)
	e.skippers = append(e.skippers, s)
	e.declines = append(e.declines, 0)
}

// Schedule runs fn at cycle `at`. Scheduling in the past (or at the
// current cycle) runs the event on the next Step.
func (e *Engine) Schedule(at Cycle, fn func(now Cycle)) {
	if at <= e.now {
		at = e.now + 1
	}
	e.seq++
	ev := event{at: at, seq: e.seq, fn: fn}
	if at-e.now >= wheelSize {
		e.events.push(ev)
		return
	}
	slot := at % wheelSize
	e.wheel[slot] = append(e.wheel[slot], ev)
	e.wheelBits |= 1 << slot
}

// nextWheel returns the cycle of the earliest wheel event, or NeverWake
// when the wheel is empty. Pending wheel events are due in
// (now, now+wheelSize), so rotating the slot bits to start at now+1
// puts the earliest one at the lowest set bit.
func (e *Engine) nextWheel() Cycle {
	if e.wheelBits == 0 {
		return NeverWake
	}
	rot := bits.RotateLeft64(e.wheelBits, -int((e.now+1)%wheelSize))
	return e.now + 1 + Cycle(bits.TrailingZeros64(rot))
}

// After runs fn delay cycles from now (at least one cycle later).
func (e *Engine) After(delay Cycle, fn func(now Cycle)) {
	e.Schedule(e.now+delay, fn)
}

// Step advances the clock one cycle: fires due events in (cycle, seq)
// order, then ticks every ticker. It reports whether any component is
// still busy.
//
// Due heap events fire before the wheel slot. A heap event due now was
// scheduled at least wheelSize cycles ago and a wheel event due now
// fewer, so the heap event holds the smaller seq. Events scheduled
// while the slot fires are due next cycle or later, so they land in
// other slots or on the heap, never in the slot being fired.
func (e *Engine) Step() (busy bool) {
	e.now++
	for e.events.len() > 0 && e.events.items[0].at <= e.now {
		ev := e.events.pop()
		ev.fn(e.now)
	}
	if slot := e.now % wheelSize; e.wheelBits&(1<<slot) != 0 {
		for _, ev := range e.wheel[slot] {
			ev.fn(e.now)
		}
		clear(e.wheel[slot]) // release the callbacks' references
		e.wheel[slot] = e.wheel[slot][:0]
		e.wheelBits &^= 1 << slot
	}
	for _, t := range e.tickers {
		if t.Tick(e.now) {
			busy = true
		}
	}
	return busy || e.EventsPending()
}

// fastForward jumps the clock to just before the next cycle at which
// any component can act, when every ticker provides a wake hint. The
// skipped cycles are accounted through CycleSkipper so statistics stay
// byte-identical to cycle-by-cycle stepping.
func (e *Engine) fastForward() {
	target := e.nextWheel()
	if e.events.len() > 0 && e.events.items[0].at < target {
		target = e.events.items[0].at
	}
	// Query latest-registered tickers first: cores and accelerators
	// (cheap, registered last) usually decline during dense phases,
	// short-circuiting before the costlier DRAM hint runs.
	for i := len(e.hinters) - 1; i >= 0; i-- {
		w, ok := e.hinters[i].NextWake(e.now)
		if !ok || w <= e.now+1 {
			e.declines[i]++ // may act next cycle (or hint is stale): no jump
			return
		}
		if w < target {
			target = w
		}
	}
	if target <= e.now+1 {
		return // an event fires next cycle: there is nothing to skip
	}
	if target == NeverWake {
		// No self-wake and no events: either the system is about to
		// quiesce or it is deadlocked. Let Run's busy logic decide on
		// exact per-cycle evidence.
		return
	}
	if e.MaxCycles != 0 && target > e.MaxCycles {
		// Never jump past the cycle limit: the limit error must fire
		// at the same cycle it would in a cycle-by-cycle run.
		target = e.MaxCycles
		if target <= e.now+1 {
			return
		}
	}
	if e.runBound != 0 && target > e.runBound {
		// Never jump past a RunUntil bound: a bounded run must land on
		// exactly the bound cycle whatever the stepping strategy.
		target = e.runBound
		if target <= e.now+1 {
			return
		}
	}
	from := e.now
	e.now = target - 1 // the next Step lands exactly on target
	for _, s := range e.skippers {
		if s != nil {
			s.SkipCycles(from, target)
		}
	}
	e.ffJumps++
	e.ffSkipped += uint64(target - 1 - from)
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{
			Cycle: uint64(from),
			Kind:  obs.EvFastForward,
			Src:   "engine",
			Args:  [6]int64{int64(target - 1), int64(target - 1 - from)},
		})
	}
}

// Run steps until no ticker is busy and no events are pending, or until
// done (if non-nil) reports true, or until MaxCycles elapses. It
// returns the final cycle count and an error if the cycle limit was
// hit.
//
// Completion semantics: done is sampled once per cycle, after that
// cycle's events have fired and every ticker has been stepped. A
// predicate that becomes true mid-cycle — e.g. inside an event
// callback, before the tickers run — therefore still pays for the full
// cycle in the returned count; Run never returns a partially stepped
// cycle. TestRunDoneSampledAtCycleBoundary pins this. When every
// ticker implements WakeHinter the quiescent stretches between such
// boundaries are fast-forwarded, which is result-identical because
// done can only change when some component acts.
func (e *Engine) Run(done func() bool) (Cycle, error) {
	interval := e.CheckEvery
	if interval == 0 {
		interval = DefaultCheckEvery
	}
	nextCheck := e.now + interval
	for {
		busy := e.Step()
		if done != nil && done() {
			return e.now, nil
		}
		if !busy && done == nil {
			return e.now, nil
		}
		if !busy && done != nil {
			// Nothing can make further progress but the completion
			// predicate is unsatisfied: the model deadlocked.
			return e.now, fmt.Errorf("sim: deadlock at cycle %d (no component busy, done()==false)", e.now)
		}
		if e.MaxCycles != 0 && e.now >= e.MaxCycles {
			return e.now, fmt.Errorf("sim: cycle limit %d exceeded", e.MaxCycles)
		}
		if e.Check != nil && e.now >= nextCheck {
			if err := e.Check(e.now); err != nil {
				return e.now, err
			}
			nextCheck = e.now + interval
		}
		if e.allHint && !e.DisableFastForward {
			e.fastForward()
		}
	}
}

// RunUntil is Run with a hard time bound: the engine stops at the
// first visited cycle >= bound (or earlier, when done reports true),
// and — unlike a caller-side `Now() >= bound` stop predicate — it
// never overshoots the bound. Overshoot is stepping-strategy-dependent
// (a fast-forward jump crosses the bound, exact stepping lands on it),
// so a time-bounded phase is byte-identical with fast-forward on and
// off only when the engine itself clamps to the bound; the interval
// sampler's detailed windows rely on this
// (TestSampledFastForwardEquivalence). Quiescing before the bound with
// done unsatisfied is a deadlock, exactly as in Run.
func (e *Engine) RunUntil(bound Cycle, done func() bool) (Cycle, error) {
	e.runBound = bound
	defer func() { e.runBound = 0 }()
	return e.Run(func() bool {
		return e.now >= bound || (done != nil && done())
	})
}
