package experiment

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/names"
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
// workload, or engaging with a zero threshold, is an assembly error.
func WithFluid(app, dc string, f Fluid) Option {
	return func(e *Experiment) error {
		if err := f.engages(app, dc); err != nil {
			return err
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

// engages rejects an explicit request for the fluid tier — WithFluid or a
// document "fluid" block — that would engage nothing: Above 0 disables the
// tier. The range of a set threshold is the gate's to check.
func (f Fluid) engages(app, dc string) error {
	if f.Above == 0 {
		return fmt.Errorf("fluid %s@%s: needs a positive threshold Above (0 disables the tier)", app, dc)
	}
	return nil
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

// attachFluid wires one fluid-configured workload: derives the station from
// its operation mix, precomputes the segment schedule, registers the
// crossover controller ahead of the flow wrapper, and installs the analytic
// series probes. It returns the schedule.
func (e *Experiment) attachFluid(r *Run, w *Workload, src *workload.AppWorkload) ([]fluid.Segment, error) {
	apm := w.APM
	if apm == nil {
		apm = e.apm
	}
	masterName, err := dominantOwner(apm, w.DC)
	if err != nil {
		return nil, fmt.Errorf("fluid %s@%s: %w", w.App, w.DC, err)
	}
	local, master := r.Inf.DC(w.DC), r.Inf.DC(masterName)
	st, err := fluid.DeriveStation(r.Inf, local, master, src.Ops, w.Weights, e.step)
	if err != nil {
		return nil, fmt.Errorf("workload %s@%s: %w", w.App, w.DC, err)
	}
	segs, err := fluid.BuildSegments(src.Users, w.OpsPerUserHour, e.step, e.DurationSeconds(),
		fluid.Config{Above: w.Fluid.Above, RhoMax: w.Fluid.RhoMax}, st, e.fluidWindows())
	if err != nil {
		return nil, fmt.Errorf("workload %s@%s: %w", w.App, w.DC, err)
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
	return segs, nil
}

// registerFluidProbes adds the analytic result series to Compile's probe
// batch. Every sample is a pure lookup into the precomputed segments at the
// snapshot instant, so the series — and therefore the digest — are
// identical across engines by construction. The series sample one
// fluidSeries, each through its own sampler type, and their keys are cut
// from one chunk, so the batch costs two allocations.
func (e *Experiment) registerFluidProbes(r *Run, w *Workload, segs []fluid.Segment) {
	fs := &fluidSeries{sim: r.Sim, segs: segs}
	series := [...]struct {
		suffix string
		sample metrics.Sampler
	}{
		{":mode", (*fluidMode)(fs)},
		{":occupancy", (*fluidOccupancy)(fs)},
		{":resp_mean", (*fluidRespMean)(fs)},
		{":resp_p90", (*fluidRespP90)(fs)},
		{":throughput", (*fluidThroughput)(fs)},
		{":ops", (*fluidOps)(fs)},
		{":crossovers", (*fluidCrossovers)(fs)},
	}
	prefix := len("fluid:") + len(w.App) + len(":") + len(w.DC)
	size := 0
	for _, s := range series {
		size += prefix + len(s.suffix)
	}
	var nb names.Slab
	nb.Grow(size)
	for _, s := range series {
		r.probes = append(r.probes, metrics.Probe{
			Key:    nb.Str("fluid:").Str(w.App).Str(":").Str(w.DC).Str(s.suffix).Cut(),
			Sample: s.sample,
		})
	}
}

// fluidSeries is what one workload's analytic series read: its precomputed
// segments, at the simulation's clock.
type fluidSeries struct {
	sim  *core.Simulation
	segs []fluid.Segment
}

func (f *fluidSeries) now() float64 { return f.sim.Clock().NowSeconds() }

func (f *fluidSeries) seg() *fluid.Segment { return fluid.At(f.segs, f.now()) }

// The analytic series sample their fluidSeries through pointers of these
// types, each the series seen as a metrics.Sampler.
type (
	fluidMode       fluidSeries
	fluidOccupancy  fluidSeries
	fluidRespMean   fluidSeries
	fluidRespP90    fluidSeries
	fluidThroughput fluidSeries
	fluidOps        fluidSeries
	fluidCrossovers fluidSeries
)

// Sample returns 1 while the segment at the snapshot instant is fluid.
func (p *fluidMode) Sample(float64) float64 {
	if (*fluidSeries)(p).seg().Fluid {
		return 1
	}
	return 0
}

// Sample returns the segment's analytic occupancy.
func (p *fluidOccupancy) Sample(float64) float64 { return (*fluidSeries)(p).seg().Occupancy }

// Sample returns the segment's analytic mean response time.
func (p *fluidRespMean) Sample(float64) float64 { return (*fluidSeries)(p).seg().RespMean }

// Sample returns the segment's analytic p90 response time.
func (p *fluidRespP90) Sample(float64) float64 { return (*fluidSeries)(p).seg().RespP90 }

// Sample returns the segment's arrival rate.
func (p *fluidThroughput) Sample(float64) float64 { return (*fluidSeries)(p).seg().Lambda }

// Sample returns the operations the fluid tier has carried so far.
func (p *fluidOps) Sample(float64) float64 {
	f := (*fluidSeries)(p)
	return fluid.OpsAt(f.segs, f.now())
}

// Sample returns the crossovers before the segment.
func (p *fluidCrossovers) Sample(float64) float64 {
	return float64((*fluidSeries)(p).seg().CrossBefore)
}
