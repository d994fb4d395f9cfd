package fluid

import (
	"math"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Flow wraps a discrete AppWorkload with the precomputed mode schedule:
// inside fluid segments it emits nothing (the analytic series carry the
// traffic) and parks its due time at the segment end, so the clock
// fast-forwards straight across; inside discrete segments it delegates to
// the wrapped workload. Mode lookups touch only the precomputed segments
// and a monotonic cursor — no RNG — so a run that never goes fluid draws
// exactly what the plain workload draws.
type Flow struct {
	Inner    *workload.AppWorkload
	Segments []Segment

	idx int
}

// advance moves the segment cursor up to the segment containing now. When
// the walk crosses a fluid segment, any thinned arrival the inner workload
// committed before that segment is stale — the analytic flow covered the
// interim — so it is discarded and the sampler re-enters from the next
// discrete poll. Crossing only discrete segments keeps the pending arrival:
// those boundaries are artificial hour marks, and dropping it would change
// the draw sequence of a run that never went fluid.
func (f *Flow) advance(now float64) {
	crossedFluid := false
	for now >= f.Segments[f.idx].End {
		if f.Segments[f.idx].Fluid {
			crossedFluid = true
		}
		f.idx++
	}
	if crossedFluid {
		f.Inner.ResetPending()
	}
}

// Poll launches the tick's arrivals in discrete segments and is a no-op in
// fluid segments.
func (f *Flow) Poll(s *core.Simulation, now float64) {
	f.advance(now)
	if f.Segments[f.idx].Fluid {
		return
	}
	f.Inner.Poll(s, now)
}

// NextPoll reports the crossover instant while fluid (making the crossover
// a calendar event the fast-forward loop lands on) and the inner schedule
// bounded by the segment end while discrete.
func (f *Flow) NextPoll(now float64) float64 {
	f.advance(now)
	seg := &f.Segments[f.idx]
	if seg.Fluid {
		return seg.End
	}
	return math.Min(f.Inner.NextPoll(now), seg.End)
}

var _ core.Source = (*Flow)(nil)

// Controller is the source that applies and releases the fluid tier's
// capacity reservations at segment boundaries. Its due times bound
// fast-forward jumps, so every reservation change — a service-rate change
// on shared CPU agents — executes in a sequential phase at its exact tick,
// the same discipline the fault controller follows.
type Controller struct {
	Segments []Segment
	// Tiers are the reservation targets, parallel to the station's Tiers
	// (and to each segment's Reserve fractions).
	Tiers []*topology.Tier

	idx     int
	applied []float64
}

// Poll advances to the segment containing now and reconciles the per-tier
// reservations with the segment's schedule.
func (c *Controller) Poll(s *core.Simulation, now float64) {
	for now >= c.Segments[c.idx].End {
		c.idx++
	}
	if c.applied == nil {
		c.applied = make([]float64, len(c.Tiers))
	}
	seg := &c.Segments[c.idx]
	for i, t := range c.Tiers {
		want := 0.0
		if seg.Fluid {
			want = seg.Reserve[i]
		}
		if want != c.applied[i] {
			t.ReserveCPU(want)
			c.applied[i] = want
		}
	}
}

// NextPoll reports the next segment boundary; the trailing segment's +Inf
// end parks the controller once the run window is covered.
func (c *Controller) NextPoll(now float64) float64 {
	i := c.idx
	for now >= c.Segments[i].End {
		i++
	}
	return c.Segments[i].End
}

var _ core.Source = (*Controller)(nil)
