package metrics

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Probe produces one sample per measurement window under its key.
type Probe struct {
	Key    string
	Sample Sampler
}

// Sampler produces a probe's sample. window is the length of the elapsed
// window in simulated seconds; implementations typically divide accumulated
// busy time by the window to report utilization, matching the paper's
// averaged snapshots rather than point samples. A component can sample
// itself through a pointer, which costs no allocation; SampleFunc adapts a
// function.
type Sampler interface {
	Sample(window float64) float64
}

// SampleFunc adapts a function to a Sampler.
type SampleFunc func(window float64) float64

// Sample calls f.
func (f SampleFunc) Sample(window float64) float64 { return f(window) }

// Collector periodically polls registered probes, building one Series per
// probe key. It mirrors the Collector Component of §4.3.1: intermediate
// samples inside a snapshot window are aggregated by the probes themselves
// (busy-time integration), and the snapshot is registered permanently.
//
// Every probe is sampled at the same instants, so the collector stores them
// once, as one time axis. A collector series' T is a read-only view of that
// axis, from the first snapshot after its probe was registered, with its
// capacity capped at its length: do not Add to a collector series or write
// into its T. Only its V is its own. Reserve sizes the axis and every V
// ahead of a run of known length.
type Collector struct {
	probes []Probe
	out    []*Series // out[i] records probes[i], resolved once at Register
	start  []int     // out[i].T is t[start[i]:]
	series map[string]*Series
	room   int       // the entries series was made to hold
	t      []float64 // the snapshot instants, shared by every series' T
}

// minRoom is the fewest series a collector's key map is made for.
const minRoom = 16

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Register adds a batch of probes; their series start at the next snapshot.
// The batch's series are made in one slab, and the collector's tables grow
// once for the whole batch, so a batch costs a fixed number of allocations
// however many probes it holds. Registering two probes with the same key
// panics: their samples would interleave into one series and corrupt it.
func (c *Collector) Register(ps ...Probe) {
	for _, p := range ps {
		if f, isFunc := p.Sample.(SampleFunc); p.Sample == nil || isFunc && f == nil {
			panic("metrics: probe without Sample function")
		}
	}
	if need := len(c.series) + len(ps); need > c.room {
		// At least minRoom, so that the first batch does not cost less
		// when it fits a map's smallest layout.
		c.room = max(2*c.room, need, minRoom)
		m := make(map[string]*Series, c.room)
		maps.Copy(m, c.series)
		c.series = m
	}
	c.probes = slices.Grow(c.probes, len(ps))
	c.out = slices.Grow(c.out, len(ps))
	c.start = slices.Grow(c.start, len(ps))
	slab := make([]Series, len(ps))
	for i, p := range ps {
		if _, dup := c.series[p.Key]; dup {
			panic(fmt.Sprintf("metrics: duplicate probe key %q", p.Key))
		}
		s := &slab[i]
		s.Name = p.Key
		c.probes = append(c.probes, p)
		c.out = append(c.out, s)
		c.start = append(c.start, len(c.t))
		c.series[p.Key] = s
	}
}

// Reserve makes room for n more snapshots in the time axis and in every
// registered series, so that many snapshots allocate nothing. A slice short
// of room moves to the capacity append would give it, so a caller reserving
// a few snapshots at a time still pays only amortised growth. The series
// that move in one call move into one block, each V capped at its own
// capacity there, so an append to a V from outside reallocates instead of
// running into the next series: a call costs the axis and that block, two
// allocations however many probes are registered. The axis stays a block of
// its own, so a series that did not move pins no copy of it.
func (c *Collector) Reserve(n int) {
	short := func(s []float64) bool { return cap(s)-len(s) < n }
	if short(c.t) {
		t := make([]float64, grownCap(len(c.t)+n, cap(c.t)))
		c.t = carve(&t, c.t, n)
	}
	total := 0
	for _, s := range c.out {
		if short(s.V) {
			total += grownCap(len(s.V)+n, cap(s.V))
		}
	}
	var block []float64
	if total > 0 {
		block = make([]float64, total)
	}
	for i, s := range c.out {
		if short(s.V) {
			s.V = carve(&block, s.V, n)
		}
		if len(s.T) > 0 {
			s.T = c.view(i)
		}
	}
}

// carve copies s to the front of *block, at the capacity grownCap gives it
// for n more elements and capped there, and cuts that much off the block.
func carve(block *[]float64, s []float64, n int) []float64 {
	m := grownCap(len(s)+n, cap(s))
	v := (*block)[:len(s):m]
	copy(v, s)
	*block = (*block)[m:]
	return v
}

// grownCap returns the capacity append grows a slice of capacity old to when
// it must hold need elements: need itself beyond twice old, otherwise twice
// old while old is small and about 1.25 times it past 256 elements.
func grownCap(need, old int) int {
	const threshold = 256
	if need > 2*old {
		return need
	}
	if old < threshold {
		return 2 * old
	}
	c := old
	for c < need {
		c += (c + 3*threshold) >> 2
	}
	return c
}

// view returns series i's window onto the time axis, capped so that an
// append to it reallocates instead of writing into the axis.
func (c *Collector) view(i int) []float64 {
	n := len(c.t)
	return c.t[c.start[i]:n:n]
}

// Snapshot polls every probe at simulated time now, closing the measurement
// window that started at the previous snapshot. A time before the previous
// snapshot panics: it indicates a clock bug.
func (c *Collector) Snapshot(now float64) {
	last := 0.0
	if n := len(c.t); n > 0 {
		last = c.t[n-1]
		if now < last {
			panic(fmt.Sprintf("metrics: out-of-order snapshot %v after %v", now, last))
		}
	}
	window := now - last
	if window <= 0 {
		window = 1e-9
	}
	c.t = append(c.t, now)
	for i, p := range c.probes {
		s := c.out[i]
		s.V = append(s.V, p.Sample.Sample(window))
		s.T = c.view(i)
	}
}

// Series returns the series recorded under key, or nil if unknown.
func (c *Collector) Series(key string) *Series { return c.series[key] }

// MustSeries returns the series recorded under key and panics when the key
// was never registered — reaching for an unknown metric is a caller bug.
func (c *Collector) MustSeries(key string) *Series {
	s := c.series[key]
	if s == nil {
		panic(fmt.Sprintf("metrics: unknown series %q", key))
	}
	return s
}

// Keys returns all registered probe keys in sorted order.
func (c *Collector) Keys() []string {
	keys := make([]string, 0, len(c.series))
	for k := range c.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
