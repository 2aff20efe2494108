// Package cache models the three-level cache hierarchy of Table 3:
// per-core L1D and L2 with stride prefetchers, a shared LLC, MSHRs at
// every level, write-back/write-allocate with LRU replacement, and a
// DRAM adapter at the bottom. Caches track presence and timing only;
// data contents live in the shared memspace, which keeps the timing
// model and the functional model trivially coherent.
package cache

import (
	"dx100/internal/memspace"
	"dx100/internal/obs"
	"dx100/internal/sim"
)

// Kind is the access type seen by a cache.
type Kind uint8

const (
	// Load reads a word.
	Load Kind = iota
	// Store writes a word (write-allocate).
	Store
	// Prefetch fills a line without a waiter.
	Prefetch
)

// Level is anything that can service line-granularity accesses: a
// cache or the DRAM adapter at the bottom of the hierarchy.
type Level interface {
	// Access requests the line containing addr. It reports false when
	// the level cannot accept the access this cycle (MSHRs or ports
	// exhausted); the caller must retry. onDone (may be nil) fires
	// when the data is available.
	Access(now sim.Cycle, addr memspace.PAddr, kind Kind, onDone func(now sim.Cycle)) bool
}

// Config sizes one cache.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency sim.Cycle // hit latency, also charged on the miss path
	MSHRs   int
	Ports   int // accesses accepted per cycle
	// PrefetchDegree enables an N-line stride prefetcher when > 0.
	PrefetchDegree int
}

// SizeBytes returns the capacity of the configuration.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * memspace.LineSize }

// line is one way of one set.
type line struct {
	valid bool
	dirty bool
	tag   uint64
	used  uint64 // LRU stamp
}

// mshr tracks one outstanding line miss. The cache owns a fixed pool
// of them, so a miss allocates nothing: forward and filled are bound
// once, when the pool is built, and waiters keeps its backing array
// across reuses.
type mshr struct {
	addr    memspace.PAddr // line address
	waiters []func(now sim.Cycle)
	kind    Kind
	// forward sends the miss below after the tag-check latency;
	// filled installs the line when the level below answers.
	forward, filled func(now sim.Cycle)
}

// fifo is a queue backed by a reusable slice: pops advance a head
// index instead of reslicing, and the backing array is recycled once
// drained, so steady-state operation does not allocate.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }
func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }
func (q *fifo[T]) peek() T  { return q.buf[q.head] }

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release the slot's references
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// train is one stride-prefetcher trigger: the miss that matched the
// stride, and the stride.
type train struct {
	miss   memspace.PAddr
	stride int64
}

// line is the address of the train's d-th prefetch.
func (t train) line(d int) memspace.PAddr {
	return memspace.PAddr(int64(t.miss) + t.stride*int64(d))
}

// Cache is one level of the hierarchy. A Cache is a sim.Ticker but
// does not register itself: NewHierarchy ticks its caches through one
// ticker, and the code that builds a standalone cache registers it.
type Cache struct {
	cfg    Config
	eng    *sim.Engine
	stats  *sim.Stats
	prefix string
	below  Level
	// lines holds every set's ways back to back: way w of set s is
	// lines[s*Ways+w], so the whole cache is one allocation.
	lines []line
	stamp uint64
	mshrs map[memspace.PAddr]*mshr
	// free is the MSHR pool: MSHRs+1 entries, the spare covering a
	// waiter that re-enters Access while its fill still holds the
	// filled MSHR.
	free []*mshr

	portCycle sim.Cycle
	portUsed  int

	// blocked holds downstream accesses the level below rejected;
	// they drain in Tick, avoiding per-cycle retry events.
	blocked fifo[blockedAccess]

	// Stride prefetcher state. trains queues the matched strides whose
	// prefetches fire next cycle, through prefetch, bound once.
	lastMiss   memspace.PAddr
	lastStride int64
	trains     fifo[train]
	prefetch   func(now sim.Cycle)

	cAccesses   *sim.Counter
	cHits       *sim.Counter
	cMisses     *sim.Counter
	cPrefetches *sim.Counter
	cWritebacks *sim.Counter

	// classify, when non-nil, attributes demand hits and misses to an
	// access class (hub vs tail data, say) beside the regular counters.
	// The class counters belong to the caller, never to the run's
	// stats — classification is observation only and must not perturb
	// the Result wire form.
	classify    func(line memspace.PAddr) int
	classHits   []*sim.Counter
	classMisses []*sim.Counter

	// trace, when non-nil, receives fill and eviction events. Both emit
	// sites are nil-guarded; tracing off costs one branch per fill.
	trace *obs.Sink
}

// New builds a cache on top of below. It does not register the cache
// on eng; see Cache.
func New(eng *sim.Engine, cfg Config, below Level, stats *sim.Stats, prefix string) *Cache {
	c := &Cache{
		cfg:    cfg,
		eng:    eng,
		stats:  stats,
		prefix: prefix,
		below:  below,
		lines:  make([]line, cfg.Sets*cfg.Ways),
		mshrs:  make(map[memspace.PAddr]*mshr, cfg.MSHRs),
	}
	for range cfg.MSHRs + 1 {
		m := &mshr{}
		m.forward = func(n sim.Cycle) { c.retryAccess(n, m.addr, Load, m.filled) }
		m.filled = func(n sim.Cycle) { c.fill(n, m) }
		c.free = append(c.free, m)
	}
	c.prefetch = c.firePrefetches
	c.cAccesses = stats.Counter(prefix + "accesses")
	c.cHits = stats.Counter(prefix + "hits")
	c.cMisses = stats.Counter(prefix + "misses")
	c.cPrefetches = stats.Counter(prefix + "prefetches")
	c.cWritebacks = stats.Counter(prefix + "writebacks")
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// AttachTrace directs fill/eviction events into sink (nil detaches).
func (c *Cache) AttachTrace(sink *obs.Sink) { c.trace = sink }

// SetAccessClasses installs a demand-access classifier: classify maps
// a line address to an index into hits/misses (negative leaves the
// access unattributed); a nil classify uninstalls. MSHR-merged
// accesses are neither hits nor misses in the base model and stay
// unattributed here too.
func (c *Cache) SetAccessClasses(classify func(line memspace.PAddr) int, hits, misses []*sim.Counter) {
	if classify != nil && len(hits) != len(misses) {
		panic("cache: SetAccessClasses needs matching hit/miss counter slices")
	}
	c.classify = classify
	c.classHits = hits
	c.classMisses = misses
}

// bumpClass attributes one demand hit or miss to its access class.
func (c *Cache) bumpClass(line memspace.PAddr, hit bool) {
	k := c.classify(line)
	if k < 0 || k >= len(c.classHits) {
		return
	}
	if hit {
		c.classHits[k].Inc()
	} else {
		c.classMisses[k].Inc()
	}
}

func (c *Cache) indexTag(addr memspace.PAddr) (set int, tag uint64) {
	l := uint64(addr) >> memspace.LineBits
	return int(l % uint64(c.cfg.Sets)), l / uint64(c.cfg.Sets)
}

// ways returns set's lines.
func (c *Cache) ways(set int) []line {
	return c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
}

func (c *Cache) lookup(addr memspace.PAddr) *line {
	set, tag := c.indexTag(addr)
	ways := c.ways(set)
	for i := range ways {
		if ln := &ways[i]; ln.valid && ln.tag == tag {
			return ln
		}
	}
	return nil
}

// PresentHere reports residency at this level only.
func (c *Cache) PresentHere(addr memspace.PAddr) bool { return c.lookup(addr) != nil }

// lru returns set's first invalid way, or else its least recently
// used one.
func (c *Cache) lru(set int) *line {
	ways := c.ways(set)
	v := &ways[0]
	for i := range ways {
		ln := &ways[i]
		if !ln.valid {
			return ln
		}
		if ln.used < v.used {
			v = ln
		}
	}
	return v
}

// lineOf returns the address of the line ln holds in set.
func (c *Cache) lineOf(ln *line, set int) memspace.PAddr {
	return memspace.PAddr((ln.tag*uint64(c.cfg.Sets) + uint64(set)) << memspace.LineBits)
}

// victim picks the LRU way of the set, writing back a dirty victim.
func (c *Cache) victim(now sim.Cycle, set int) *line {
	v := c.lru(set)
	if !v.valid {
		return v
	}
	if c.trace != nil {
		dirty := int64(0)
		if v.dirty {
			dirty = 1
		}
		c.trace.Emit(obs.Event{
			Cycle: uint64(now), Kind: obs.EvCacheEvict, Src: c.prefix,
			Args: [6]int64{int64(c.lineOf(v, set)), int64(set), dirty},
		})
	}
	if v.dirty {
		c.cWritebacks.Inc()
		c.retryAccess(now, c.lineOf(v, set), Store, nil)
	}
	return v
}

type blockedAccess struct {
	addr   memspace.PAddr
	kind   Kind
	onDone func(sim.Cycle)
}

// retryAccess pushes an access to the level below, queueing it for
// Tick-time retry if rejected.
func (c *Cache) retryAccess(now sim.Cycle, addr memspace.PAddr, kind Kind, onDone func(sim.Cycle)) {
	if c.blocked.len() == 0 && c.below.Access(now, addr, kind, onDone) {
		return
	}
	c.blocked.push(blockedAccess{addr, kind, onDone})
}

// Access implements Level.
func (c *Cache) Access(now sim.Cycle, addr memspace.PAddr, kind Kind, onDone func(now sim.Cycle)) bool {
	if now != c.portCycle {
		c.portCycle = now
		c.portUsed = 0
	}
	if c.portUsed >= c.cfg.Ports {
		return false
	}
	lineAddr := memspace.LineAddr(addr)

	// Merge into a pending miss for the same line.
	if m, ok := c.mshrs[lineAddr]; ok {
		c.portUsed++
		if kind != Prefetch {
			c.cAccesses.Inc()
			if onDone != nil {
				m.waiters = append(m.waiters, onDone)
			}
			if kind == Store {
				m.kind = Store
			}
		}
		return true
	}

	if ln := c.lookup(lineAddr); ln != nil {
		c.portUsed++
		if kind == Prefetch {
			return true
		}
		c.cAccesses.Inc()
		c.cHits.Inc()
		if c.classify != nil {
			c.bumpClass(lineAddr, true)
		}
		c.stamp++
		ln.used = c.stamp
		if kind == Store {
			ln.dirty = true
		}
		if onDone != nil {
			c.eng.After(c.cfg.Latency, onDone)
		}
		return true
	}

	// Miss: need an MSHR.
	if len(c.mshrs) >= c.cfg.MSHRs {
		return false
	}
	c.portUsed++
	if kind != Prefetch {
		c.cAccesses.Inc()
		c.cMisses.Inc()
		if c.classify != nil {
			c.bumpClass(lineAddr, false)
		}
	} else {
		c.cPrefetches.Inc()
	}
	m := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	m.addr, m.kind = lineAddr, kind
	if onDone != nil {
		m.waiters = append(m.waiters, onDone)
	}
	c.mshrs[lineAddr] = m
	// After the tag-check latency, forward below; on return, fill and
	// wake the waiters.
	c.eng.After(c.cfg.Latency, m.forward)
	if kind != Prefetch {
		if t, ok := c.strideMatch(lineAddr); ok {
			c.trains.push(t)
			c.eng.After(1, c.prefetch)
		}
	}
	return true
}

// fill installs the arrived line and wakes the MSHR's waiters.
func (c *Cache) fill(now sim.Cycle, m *mshr) {
	set, tag := c.indexTag(m.addr)
	v := c.victim(now, set)
	c.stamp++
	*v = line{valid: true, dirty: m.kind == Store, tag: tag, used: c.stamp}
	if c.trace != nil {
		c.trace.Emit(obs.Event{
			Cycle: uint64(now), Kind: obs.EvCacheFill, Src: c.prefix,
			Args: [6]int64{int64(m.addr), int64(set)},
		})
	}
	delete(c.mshrs, m.addr)
	for _, w := range m.waiters {
		w(now)
	}
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	c.free = append(c.free, m)
}

// strideMatch trains the stride prefetcher on a demand miss and
// reports whether it matched: two consecutive misses with the same
// stride, of at most four lines, match. The returned train then
// prefetches PrefetchDegree lines ahead along that stride.
func (c *Cache) strideMatch(missAddr memspace.PAddr) (train, bool) {
	if c.cfg.PrefetchDegree == 0 {
		return train{}, false
	}
	stride := int64(missAddr) - int64(c.lastMiss)
	ok := c.lastMiss != 0 && stride == c.lastStride && stride != 0 && abs64(stride) <= 4*memspace.LineSize
	c.lastStride = stride
	c.lastMiss = missAddr
	return train{missAddr, stride}, ok
}

// firePrefetches issues the oldest queued train's PrefetchDegree
// prefetches. Every train waits exactly one cycle, so trains fire in
// the order they were queued.
func (c *Cache) firePrefetches(now sim.Cycle) {
	t := c.trains.pop()
	for d := 1; d <= c.cfg.PrefetchDegree; d++ {
		// Best effort: dropped if ports/MSHRs are busy.
		c.Access(now, t.line(d), Prefetch, nil)
	}
}

// Tick implements sim.Ticker: it drains rejected downstream accesses
// as the level below frees up. A cache is busy while misses are
// outstanding. A cache acts on its own only to retry; fills and
// waiter callbacks arrive through scheduled events.
func (c *Cache) Tick(now sim.Cycle) bool {
	for c.blocked.len() > 0 {
		b := c.blocked.peek()
		if !c.below.Access(now, b.addr, b.kind, b.onDone) {
			break
		}
		c.blocked.pop()
	}
	return len(c.mshrs) > 0 || c.blocked.len() > 0
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
