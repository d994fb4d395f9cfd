package experiment

import (
	"fmt"
	"sort"

	"repro/internal/cascade"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Fluid configures the analytic client-aggregation tier for one workload
// (see internal/fluid): segments whose expected arrivals per tick reach
// Above are carried as a deterministic fluid flow through the M/M/c
// machinery instead of discrete sampling, falling back to discrete
// whenever the bottleneck's ceiling utilization reaches the RhoMax guard
// or a fault window is active.
type Fluid struct {
	// Above is the expected-arrivals-per-tick threshold engaging the fluid
	// tier — the high-rate mirror of Workload.ThinBelow. Zero disables.
	Above float64
	// RhoMax is the saturation guard in (0, 1); zero selects
	// fluid.DefaultRhoMax.
	RhoMax float64
}

// WithFluid engages the fluid tier on every already-declared workload
// matching app@dc. Declare the workload first; configuring an undeclared
// workload is an assembly error.
func WithFluid(app, dc string, f Fluid) Option {
	return func(e *Experiment) error {
		if f.Above <= 0 {
			return fmt.Errorf("fluid %s@%s: threshold Above must be positive, got %v", app, dc, f.Above)
		}
		if f.RhoMax < 0 || f.RhoMax >= 1 {
			return fmt.Errorf("fluid %s@%s: saturation guard RhoMax %v outside [0, 1)", app, dc, f.RhoMax)
		}
		found := false
		for i := range e.workloads {
			if e.workloads[i].App == app && e.workloads[i].DC == dc {
				e.workloads[i].Fluid = f
				found = true
			}
		}
		if !found {
			return fmt.Errorf("fluid: no workload %s@%s declared (declare it before WithFluid)", app, dc)
		}
		return nil
	}
}

// fluidWindows collects the effective fault windows — the intervals the
// fluid tier must simulate discretely so tail behavior under stress stays
// honest. No-op injections (faults.Injection.NoOp) force no fallback.
func (e *Experiment) fluidWindows() []fluid.Window {
	var wins []fluid.Window
	for _, inj := range e.faults {
		if inj.NoOp() {
			continue
		}
		wins = append(wins, fluid.Window{Start: inj.At, End: inj.At + inj.Duration})
	}
	return wins
}

// dominantOwner resolves the master data center the fluid station is
// derived against: the access-matrix owner holding the most mass for the
// workload's DC, ties broken lexicographically for determinism.
func dominantOwner(apm workload.AccessMatrix, dc string) (string, error) {
	row, ok := apm[dc]
	if !ok {
		return "", fmt.Errorf("access matrix has no row for %s", dc)
	}
	owners := make([]string, 0, len(row))
	for o := range row {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	best, bestP := "", 0.0
	for _, o := range owners {
		if p := row[o]; p > bestP {
			best, bestP = o, p
		}
	}
	if best == "" {
		return "", fmt.Errorf("access matrix row for %s holds no mass", dc)
	}
	return best, nil
}

// attachFluid wires one fluid-configured workload: derives the station,
// precomputes the segment schedule, registers the crossover controller
// ahead of the flow wrapper, and installs the analytic series probes.
func (e *Experiment) attachFluid(r *Run, w *Workload, src *workload.AppWorkload, ops []cascade.Op) error {
	apm := w.APM
	if apm == nil {
		apm = e.apm
	}
	masterName, err := dominantOwner(apm, w.DC)
	if err != nil {
		return fmt.Errorf("fluid %s@%s: %w", w.App, w.DC, err)
	}
	local, master := r.Inf.DC(w.DC), r.Inf.DC(masterName)
	st, err := fluid.DeriveStation(r.Inf, local, master, ops, w.Weights, e.step)
	if err != nil {
		return fmt.Errorf("workload %s@%s: %w", w.App, w.DC, err)
	}
	segs, err := fluid.BuildSegments(src.Users, w.OpsPerUserHour, e.step, e.DurationSeconds(),
		fluid.Config{Above: w.Fluid.Above, RhoMax: w.Fluid.RhoMax}, st, e.fluidWindows())
	if err != nil {
		return fmt.Errorf("workload %s@%s: %w", w.App, w.DC, err)
	}
	tiers := make([]*topology.Tier, len(st.Tiers))
	for i, tl := range st.Tiers {
		tiers[i] = r.Inf.DC(tl.DC).Tier(tl.Tier)
	}
	// Controller first: at a shared boundary tick it must release or apply
	// reservations before the flow's first discrete poll of the segment.
	r.Sim.AddSource(&fluid.Controller{Segments: segs, Tiers: tiers})
	r.Sim.AddSource(&fluid.Flow{Inner: src, Segments: segs})
	e.registerFluidProbes(r, w, segs)
	return nil
}

// registerFluidProbes installs the analytic result series. Every sample is
// a pure lookup into the precomputed segments at the snapshot instant, so
// the series — and therefore the digest — are identical across engines by
// construction.
func (e *Experiment) registerFluidProbes(r *Run, w *Workload, segs []fluid.Segment) {
	prefix := "fluid:" + w.App + ":" + w.DC
	sim := r.Sim
	now := func() float64 { return sim.Clock().NowSeconds() }
	seg := func() *fluid.Segment { return fluid.At(segs, now()) }
	for _, p := range []metrics.Probe{
		{Key: prefix + ":mode", Sample: func(float64) float64 {
			if seg().Fluid {
				return 1
			}
			return 0
		}},
		{Key: prefix + ":occupancy", Sample: func(float64) float64 { return seg().Occupancy }},
		{Key: prefix + ":resp_mean", Sample: func(float64) float64 { return seg().RespMean }},
		{Key: prefix + ":resp_p90", Sample: func(float64) float64 { return seg().RespP90 }},
		{Key: prefix + ":throughput", Sample: func(float64) float64 { return seg().Lambda }},
		{Key: prefix + ":ops", Sample: func(float64) float64 { return fluid.OpsAt(segs, now()) }},
		{Key: prefix + ":crossovers", Sample: func(float64) float64 { return float64(seg().CrossBefore) }},
	} {
		sim.Collector.Register(p)
	}
}
