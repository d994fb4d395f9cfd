package metrics

import (
	"fmt"
	"sort"
)

// Probe produces one sample per measurement window. window is the length of
// the elapsed window in simulated seconds; implementations typically divide
// accumulated busy time by the window to report utilization, matching the
// paper's averaged snapshots rather than point samples.
type Probe struct {
	Key    string
	Sample func(window float64) float64
}

// Collector periodically polls registered probes, building one Series per
// probe key. It mirrors the Collector Component of §4.3.1: intermediate
// samples inside a snapshot window are aggregated by the probes themselves
// (busy-time integration), and the snapshot is registered permanently.
type Collector struct {
	probes []Probe
	out    []*Series // out[i] records probes[i], resolved once at Register
	series map[string]*Series
	last   float64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{series: make(map[string]*Series)}
}

// Register adds a probe. Registering two probes with the same key panics:
// their samples would interleave into one series and corrupt it.
func (c *Collector) Register(p Probe) {
	if p.Sample == nil {
		panic("metrics: probe without Sample function")
	}
	if _, dup := c.series[p.Key]; dup {
		panic(fmt.Sprintf("metrics: duplicate probe key %q", p.Key))
	}
	s := &Series{Name: p.Key}
	c.probes = append(c.probes, p)
	c.out = append(c.out, s)
	c.series[p.Key] = s
}

// Snapshot polls every probe at simulated time now, closing the measurement
// window that started at the previous snapshot.
func (c *Collector) Snapshot(now float64) {
	window := now - c.last
	if window <= 0 {
		window = 1e-9
	}
	for i, p := range c.probes {
		c.out[i].Add(now, p.Sample(window))
	}
	c.last = now
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
