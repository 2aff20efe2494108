package prof

// Timeline is the windowed telemetry of one run in columnar form: one
// cycle stamp per window plus one value column per probe. Columns keep
// float64 resolution; rows are appended in cycle order. The JSON shape
// is part of the Result wire form (omitempty) and of the dx100d
// timeline endpoint.
type Timeline struct {
	// Window is the nominal sampling interval in simulated cycles.
	// Actual rows may land late (the engine check hook fires at cycle
	// boundaries and may be deferred by a fast-forward jump) and the
	// final row covers whatever tail remained, so consumers must use
	// Cycles, not i*Window, as the time axis.
	Window uint64   `json:"window"`
	Cycles []uint64 `json:"cycles"`
	Series []Series `json:"series"`
}

// Series is one named value column of a Timeline.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Len returns the number of recorded windows.
func (t *Timeline) Len() int { return len(t.Cycles) }

type probeKind uint8

const (
	gaugeProbe probeKind = iota // instantaneous value
	ratioProbe                  // Δnum/Δden over the window
)

// probe is one sampled quantity. All callbacks read cumulative or
// instantaneous simulator state; the sampler owns the previous-value
// bookkeeping that turns them into per-window figures.
type probe struct {
	name     string
	kind     probeKind
	f        func() float64 // gauge value
	num, den func() float64 // ratio sources (cumulative)
	prevNum  float64
	prevDen  float64
}

// Sampler drives windowed telemetry: probes registered up front, a
// Begin to take baselines after any warm-up, then Sample at roughly
// every Window cycles (the exp layer calls it from the engine's check
// hook) and a Finish that records the partial tail window. A Sampler
// only reads through its probes, so sampling cannot perturb the
// simulation.
type Sampler struct {
	window uint64
	probes []probe

	tl     Timeline
	start  uint64 // absolute cycle of Begin; rows are start-relative
	lastAt uint64 // absolute cycle of the last recorded row
	nextAt uint64 // absolute cycle the next row is due
	begun  bool

	// OnSample, when set, observes every recorded row: the
	// start-relative cycle, the probe names (shared, do not mutate) and
	// the row values (valid only during the call). dx100d uses it to
	// stream live timeline SSE events.
	OnSample func(cycle uint64, names []string, values []float64)

	names []string
	row   []float64
}

// DefaultWindow is the sampling interval used when a caller enables
// profiling without choosing one: fine enough to resolve phases of the
// scale-1 smoke workloads, coarse enough that evaluation-scale runs
// keep timelines to a few thousand rows.
const DefaultWindow = 1 << 17

// NewSampler returns a sampler recording every window cycles
// (DefaultWindow when window is 0).
func NewSampler(window uint64) *Sampler {
	if window == 0 {
		window = DefaultWindow
	}
	return &Sampler{window: window}
}

// Window returns the nominal sampling interval.
func (s *Sampler) Window() uint64 { return s.window }

// Gauge registers an instantaneous probe: each row records f() as-is
// (queue depths, buffer occupancy).
func (s *Sampler) Gauge(name string, f func() float64) {
	s.probes = append(s.probes, probe{name: name, kind: gaugeProbe, f: f})
	s.names = nil
}

// Ratio registers a windowed ratio probe: each row records
// Δnum/Δden over the window, and 0 when the denominator did not move
// (a stalled window has no row-hit rate, not a NaN — the Result wire
// form must stay valid JSON).
func (s *Sampler) Ratio(name string, num, den func() float64) {
	s.probes = append(s.probes, probe{name: name, kind: ratioProbe, num: num, den: den})
	s.names = nil
}

// Names returns the probe names in registration order — the schema of
// every row.
func (s *Sampler) Names() []string {
	if s.names == nil {
		s.names = make([]string, len(s.probes))
		for i := range s.probes {
			s.names[i] = s.probes[i].name
		}
	}
	return s.names
}

// Begin arms the sampler at the given absolute cycle: baselines for
// ratio probes are captured here, and recorded rows are
// stamped relative to it. Call it after any warm-up phase (whose
// statistics are reset) so the first window measures the measured run.
func (s *Sampler) Begin(cycle uint64) {
	for i := range s.probes {
		p := &s.probes[i]
		if p.kind == ratioProbe {
			p.prevNum = p.num()
			p.prevDen = p.den()
		}
	}
	s.start = cycle
	s.lastAt = cycle
	s.nextAt = cycle + s.window
	s.begun = true
	s.tl = Timeline{Window: s.window}
	if s.row == nil {
		s.row = make([]float64, len(s.probes))
	}
}

// Due reports whether a row is due at the given absolute cycle.
func (s *Sampler) Due(cycle uint64) bool {
	return s.begun && cycle >= s.nextAt
}

// Sample records one row at the given absolute cycle. Zero-width
// windows are skipped, so calling it twice at the same cycle (a check
// hook firing alongside Finish) records once.
func (s *Sampler) Sample(cycle uint64) {
	if !s.begun || cycle <= s.lastAt {
		return
	}
	if s.tl.Series == nil {
		s.tl.Series = make([]Series, len(s.probes))
		for i := range s.probes {
			s.tl.Series[i].Name = s.probes[i].name
		}
	}
	s.tl.Cycles = append(s.tl.Cycles, cycle-s.start)
	for i := range s.probes {
		p := &s.probes[i]
		var v float64
		switch p.kind {
		case gaugeProbe:
			v = p.f()
		case ratioProbe:
			num, den := p.num(), p.den()
			if dd := den - p.prevDen; dd > 0 {
				v = (num - p.prevNum) / dd
			}
			p.prevNum, p.prevDen = num, den
		}
		s.tl.Series[i].Values = append(s.tl.Series[i].Values, v)
		s.row[i] = v
	}
	s.lastAt = cycle
	s.nextAt = cycle + s.window
	if s.OnSample != nil {
		s.OnSample(cycle-s.start, s.Names(), s.row)
	}
}

// Finish records the partial tail window ending at the given absolute
// cycle and returns the finished timeline. A run shorter than one
// window still yields one row.
func (s *Sampler) Finish(cycle uint64) *Timeline {
	s.Sample(cycle)
	return &s.tl
}
