// Package workload implements the application-workload model of GDISim
// (§3.5.1): hourly client-population curves per data center, operation
// mixes, the timed series launcher used by the Chapter 5 validation
// experiments, and the Poisson operation launcher driving the Chapter 6-7
// case studies. It also provides the Access Pattern Matrix of §7.3.2 that
// maps client locations to file-owner data centers.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/topology"
)

// Curve is a 24-hour concurrent-user curve indexed by hour of day (GMT).
type Curve [24]float64

// At returns the population at a simulated instant (seconds since
// midnight, wrapping daily) with piecewise-linear interpolation between
// hour points.
func (c Curve) At(seconds float64) float64 {
	day := math.Mod(seconds, 24*3600)
	if day < 0 {
		day += 24 * 3600
	}
	h := day / 3600
	lo := int(h) % 24
	hi := (lo + 1) % 24
	frac := h - math.Floor(h)
	return c[lo]*(1-frac) + c[hi]*frac
}

// NextPositive returns the earliest instant at or after t from which the
// curve stops being identically zero: t itself when the segment containing
// t has a positive endpoint (the value is positive at t or immediately
// after), otherwise the start of the first later hour segment with a
// positive endpoint, or +Inf for the all-zero curve. The result is
// conservative for fast-forward scheduling: the curve is guaranteed zero at
// every instant strictly before it, so skipped workload polls in that
// stretch are no-ops.
func (c Curve) NextPositive(t float64) float64 {
	const day = 24 * 3600
	base := math.Floor(t/day) * day
	hour := int((t - base) / 3600) // 0..23
	if c[hour%24] > 0 || c[(hour+1)%24] > 0 {
		return t
	}
	for i := 1; i <= 24; i++ {
		lo := (hour + i) % 24
		hi := (lo + 1) % 24
		if c[lo] > 0 || c[hi] > 0 {
			return base + float64(hour+i)*3600
		}
	}
	return math.Inf(1)
}

// Ceiling returns the maximum curve value over [t0, t1]. The curve is
// piecewise linear between hour points, so the maximum over any span is
// attained at the span's endpoints or at an interior hour point; spans of a
// day or longer see the whole curve. Thinned arrival sampling uses it as
// the dominating rate of a lookahead window (Lewis-Shedler thinning needs
// rate(t) <= ceiling over the whole window). t1 < t0 yields At(t0).
func (c Curve) Ceiling(t0, t1 float64) float64 {
	p := c.At(t0)
	if v := c.At(t1); v > p {
		p = v
	}
	if t1-t0 >= 24*3600 {
		return math.Max(p, c.Peak())
	}
	// Interior hour points: the first boundary strictly after t0 through
	// the last strictly before t1.
	for b := math.Floor(t0/3600)*3600 + 3600; b < t1; b += 3600 {
		if v := c.At(b); v > p {
			p = v
		}
	}
	return p
}

// Integral returns the curve's integral over [t0, t1] seconds, exact for
// the piecewise-linear curve: one trapezoid per hour segment the span
// touches. The expected launches of a population over a span are this
// times the per-user rate.
func (c Curve) Integral(t0, t1 float64) float64 {
	area := 0.0
	for t := t0; t < t1; {
		next := min(math.Floor(t/3600)*3600+3600, t1)
		area += (c.At(t) + c.At(next)) / 2 * (next - t)
		t = next
	}
	return area
}

// Peak returns the maximum hourly value.
func (c Curve) Peak() float64 {
	p := c[0]
	for _, v := range c[1:] {
		if v > p {
			p = v
		}
	}
	return p
}

// Scale returns the curve multiplied by f.
func (c Curve) Scale(f float64) Curve {
	var out Curve
	for i, v := range c {
		out[i] = v * f
	}
	return out
}

// Sum adds two curves point-wise (global population across DCs).
func (c Curve) Sum(o Curve) Curve {
	var out Curve
	for i := range c {
		out[i] = c[i] + o[i]
	}
	return out
}

// BusinessDay builds the diurnal trapezoid behind Figs. 6-5..6-7: a night
// floor, a ramp-up hour into the business window [startGMT, endGMT), a
// plateau at peak, and a ramp-down hour. Windows may wrap midnight
// (Australia's business day spans 23:00-08:00 GMT).
func BusinessDay(peak float64, startGMT, endGMT int, nightFloor float64) Curve {
	var c Curve
	inWindow := func(h int) bool {
		if startGMT <= endGMT {
			return h >= startGMT && h < endGMT
		}
		return h >= startGMT || h < endGMT
	}
	for h := 0; h < 24; h++ {
		switch {
		case inWindow(h):
			c[h] = peak
		case inWindow((h + 1) % 24):
			c[h] = nightFloor + (peak-nightFloor)*0.4 // ramp-up shoulder
		case inWindow((h + 23) % 24):
			c[h] = nightFloor + (peak-nightFloor)*0.4 // ramp-down shoulder
		default:
			c[h] = nightFloor
		}
	}
	return c
}

// AccessMatrix is the Access Pattern Matrix (Tables 7.1, 7.2): for each
// client data center, the fraction of requests addressed to files owned by
// each data center. Rows must sum to 1.
type AccessMatrix map[string]map[string]float64

// Validate checks that every row is a probability distribution. The checks
// state what is usable, so a NaN entry fails them.
func (m AccessMatrix) Validate() error {
	for from, row := range m {
		sum := 0.0
		for _, p := range row {
			if !(p >= 0) {
				return fmt.Errorf("workload: APM row %s has a negative or NaN entry", from)
			}
			sum += p
		}
		if !(math.Abs(sum-1) <= 1e-6) {
			return fmt.Errorf("workload: APM row %s sums to %v, want 1", from, sum)
		}
	}
	return nil
}

// SingleMaster returns the Chapter 6 matrix: every request from every DC
// goes to files owned by the master (Table 7.1).
func SingleMaster(dcs []string, master string) AccessMatrix {
	m := make(AccessMatrix, len(dcs))
	for _, dc := range dcs {
		m[dc] = map[string]float64{master: 1}
	}
	return m
}

// Owner samples the owner data center for a request from the given client
// DC. It panics on an unknown row — a scenario wiring bug.
func (m AccessMatrix) Owner(clientDC string, rng *rand.Rand) string {
	row, ok := m[clientDC]
	if !ok {
		panic(fmt.Sprintf("workload: APM has no row for %s", clientDC))
	}
	u := rng.Float64()
	acc := 0.0
	last := ""
	// Iterate in stable order for determinism.
	for _, owner := range stableKeys(row) {
		acc += row[owner]
		last = owner
		if u < acc {
			return owner
		}
	}
	return last
}

// owner is one entry of an AccessMatrix row prepared for repeated draws:
// the owner's name, its probability and — where the name is a data center
// of the infrastructure — the data center itself.
type owner struct {
	name string
	p    float64
	dc   *topology.DataCenter
}

// owners prepares the row of clientDC in stableKeys order, into dst's
// storage when it has room for the row; nil when the matrix has none. A
// launcher builds its own row once; drawOwner is then Owner without the
// per-call sort — same iteration order, same float accumulation, same
// single RNG draw.
func (m AccessMatrix) owners(dst []owner, clientDC string, inf *topology.Infrastructure) []owner {
	row, ok := m[clientDC]
	if !ok {
		return nil
	}
	out := slices.Grow(dst[:0], len(row))
	for name, p := range row {
		out = append(out, owner{name: name, p: p, dc: inf.DCs[name]})
	}
	// Insertion sort by name, as stableKeys sorts the row's keys.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].name < out[j-1].name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// drawOwner samples a non-empty prepared row.
func drawOwner(row []owner, rng *rand.Rand) *owner {
	u := rng.Float64()
	acc := 0.0
	for i := range row {
		acc += row[i].p
		if u < acc {
			return &row[i]
		}
	}
	return &row[len(row)-1]
}

func stableKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: tiny maps, no need for sort import here.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
