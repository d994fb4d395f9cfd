// Package fluid implements the hybrid analytic/discrete client-aggregation
// tier: above a configurable arrival-rate threshold an AppWorkload stops
// emitting discrete operations and instead contributes a deterministic
// fluid flow, evaluated per curve segment through the M/M/c machinery of
// internal/queueing (mean and p90 response, occupancy, throughput), while
// reserving the matching utilization on the hardware tiers it would have
// loaded so discrete traffic sharing a tier sees honest residual capacity.
//
// The mode decision is made entirely at compile time from compile-time
// inputs — the population curve, the thinning-style threshold, the
// saturation guard and the declared fault windows — so every crossover
// instant is a precomputed calendar event: the clock fast-forwards across
// fluid stretches exactly as it does across quiet hours and lands on
// crossovers exactly as it does on fault transitions, and the whole
// schedule is bit-reproducible. Whenever
// the guard or a fault window forbids the analytic model, the workload
// falls back to the discrete Lewis-Shedler sampler for that segment, so
// tail behavior under stress stays honest. See DESIGN.md, "Fluid workload
// tier".
package fluid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/queueing"
	"repro/internal/workload"
)

// DefaultRhoMax is the default saturation guard: segments whose ceiling
// utilization at the bottleneck station reaches this value are simulated
// discretely. 0.9 keeps the analytic model well inside the region where
// the mean-field M/M/c quantities are accurate and far from the ErlangC
// stability boundary (the guard trips strictly before queueing.ErrSaturated
// can occur — a property test pins this).
const DefaultRhoMax = 0.9

// Config parameterizes the fluid tier for one workload.
type Config struct {
	// Above is the expected-arrivals-per-tick threshold at or above which a
	// segment is aggregated analytically — the high-rate mirror of
	// workload.AppWorkload.ThinBelow. Zero or negative disables the tier.
	Above float64
	// RhoMax is the saturation guard; zero selects DefaultRhoMax.
	RhoMax float64
}

// Window is a half-open interval [Start, End) during which the analytic
// model must not be used — an effective fault-injection window, where tail
// behavior has to come from discrete sampling.
type Window struct {
	Start, End float64
}

// Segment is one precomputed stretch of the run with a fixed mode. Segment
// boundaries fall on curve hour marks (the population curve is linear
// inside an hour, making the per-segment mean rate exact) and on fault
// window edges; segments are contiguous and cover [0, +Inf), the last one
// parking the flow past the run window.
type Segment struct {
	Start, End float64
	// Fluid selects the analytic model for this segment; discrete segments
	// delegate to the wrapped workload's Lewis-Shedler sampler.
	Fluid bool
	// Crossover marks that entering this segment flipped the mode — the
	// calendar events the crossover series counts.
	Crossover bool
	// CrossBefore is the number of crossovers at or before Start.
	CrossBefore int

	// Analytic quantities, fluid segments only.
	Lambda    float64 // mean arrival rate over the segment, ops/second
	Rho       float64 // ceiling utilization at the bottleneck station
	Occupancy float64 // mean operations in system (L, Little's law)
	RespMean  float64 // station base + M/M/c mean wait, seconds
	RespP90   float64 // station base p90 + M/M/c wait p90, seconds
	// OpsStart is the cumulative analytic operation count completed before
	// Start; within a fluid segment the count grows linearly at Lambda.
	OpsStart float64
	// Reserve holds the capacity fraction withheld on each station tier
	// (parallel to Station.Tiers), sized by the segment's ceiling rate.
	Reserve []float64
}

// BuildSegments precomputes the mode schedule and analytic series for one
// workload over [0, duration). The curve must already be shifted into the
// run window (as experiment compilation does). A segment is fluid iff its
// ceiling expected arrivals per tick reach cfg.Above, its ceiling
// utilization at the station bottleneck stays strictly below the guard,
// and it overlaps no fault window.
func BuildSegments(users workload.Curve, opsPerUserHour, step, duration float64,
	cfg Config, st Station, faults []Window) ([]Segment, error) {
	if cfg.Above <= 0 {
		return nil, fmt.Errorf("fluid: threshold Above must be positive, got %v", cfg.Above)
	}
	rhoMax := cfg.RhoMax
	if rhoMax == 0 {
		rhoMax = DefaultRhoMax
	}
	if rhoMax <= 0 || rhoMax >= 1 {
		return nil, fmt.Errorf("fluid: saturation guard RhoMax %v outside (0, 1)", rhoMax)
	}
	if step <= 0 || duration <= 0 {
		return nil, fmt.Errorf("fluid: needs positive step and duration")
	}
	if st.Cores <= 0 || st.Mu <= 0 {
		return nil, fmt.Errorf("fluid: invalid station %+v", st)
	}

	edges := []float64{0}
	for t := 3600.0; t < duration; t += 3600 {
		edges = append(edges, t)
	}
	for _, w := range faults {
		for _, t := range []float64{w.Start, w.End} {
			if t > 0 && t < duration {
				edges = append(edges, t)
			}
		}
	}
	edges = append(edges, duration)
	sort.Float64s(edges)
	uniq := edges[:1]
	for _, t := range edges[1:] {
		if t > uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	edges = uniq

	perUser := opsPerUserHour / 3600
	segs := make([]Segment, 0, len(edges))
	ops := 0.0
	for i := 0; i+1 < len(edges); i++ {
		s, e := edges[i], edges[i+1]
		lamCeil := users.Ceiling(s, e) * perUser
		rhoCeil := lamCeil / (float64(st.Cores) * st.Mu)
		seg := Segment{Start: s, End: e, OpsStart: ops}
		if lamCeil*step >= cfg.Above && rhoCeil < rhoMax && !overlaps(s, e, faults) {
			// The population curve is linear inside each segment (edges
			// include every hour mark), so the endpoint mean is the exact
			// average rate and the ops integral below is exact.
			lam := (users.At(s) + users.At(e)) / 2 * perUser
			m := queueing.MMc{C: st.Cores, Lambda: lam, Mu: st.Mu}
			wq, err := m.MeanWait()
			if err != nil {
				return nil, fmt.Errorf("fluid: segment [%v, %v): %w", s, e, err)
			}
			wq90, err := m.WaitQuantile(0.90)
			if err != nil {
				return nil, fmt.Errorf("fluid: segment [%v, %v): %w", s, e, err)
			}
			seg.Fluid = true
			seg.Lambda = lam
			seg.Rho = rhoCeil
			seg.Occupancy = lam * (wq + 1/st.Mu)
			seg.RespMean = st.Base + wq
			seg.RespP90 = st.BaseP90 + wq90
			seg.Reserve = st.reserveFracs(lamCeil)
			ops += lam * (e - s)
		}
		segs = append(segs, seg)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Fluid != segs[i-1].Fluid {
			segs[i].Crossover = true
		}
		segs[i].CrossBefore = segs[i-1].CrossBefore
		if segs[i].Crossover {
			segs[i].CrossBefore++
		}
	}
	// Trailing discrete segment parks the flow past the run window. It is
	// never a crossover: the mode after the run ends is not an event.
	last := segs[len(segs)-1]
	segs = append(segs, Segment{
		Start: duration, End: math.Inf(1),
		OpsStart: ops, CrossBefore: last.CrossBefore,
	})
	return segs, nil
}

func overlaps(s, e float64, wins []Window) bool {
	for _, w := range wins {
		if w.Start < e && s < w.End {
			return true
		}
	}
	return false
}

// At returns the segment containing instant t.
func At(segs []Segment, t float64) *Segment {
	i := sort.Search(len(segs), func(i int) bool { return t < segs[i].End })
	if i >= len(segs) {
		i = len(segs) - 1
	}
	return &segs[i]
}

// OpsAt returns the cumulative analytic operation count at instant t —
// the exact integral of the fluid arrival rate over [0, t].
func OpsAt(segs []Segment, t float64) float64 {
	seg := At(segs, t)
	if seg.Fluid {
		return seg.OpsStart + seg.Lambda*(t-seg.Start)
	}
	return seg.OpsStart
}
