// Package experiment is the declarative what-if surface of the simulator:
// one Experiment value — assembled from functional options or compiled from
// a JSON scenario document — describes everything a run needs (the
// infrastructure, the workloads, the background daemons, the run window,
// the engine and the seed), and one pipeline turns it into results
// (Compile: build simulation → build topology → attach workloads and
// daemons → register probes → run → harvest a uniform Result).
//
// The engine an experiment carries (WithEngine, the document's "engine")
// only parallelizes the reference loop's sweep (LoopFlags.NoFastForward);
// the production loop runs on the calling goroutine whatever it is. The
// way to put more cores on a what-if question is Sweep.Run(n): points are
// independent simulations on a worker pool.
//
// The package exists so scenario code stops hand-wiring simulations: the
// thesis scenarios (internal/scenarios), the JSON document loader
// (internal/config) and the CLI all assemble the same Experiment type, and
// everything learned by one surface (loop flags, window shifting, daemon
// sizing) is shared by all of them. On top of a single experiment, Sweep
// (sweep.go) expands a parameter grid into independent experiments and runs
// them concurrently with deterministically derived per-point seeds.
package experiment

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/background"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Experiment is a complete, runnable scenario description. Assemble one
// with New and functional options; run it with Run (or Compile + Execute
// when the caller needs the built simulation before time advances).
// An Experiment is a value to build and run once — Sweep re-assembles a
// fresh one per grid point from a base factory, so points never share
// mutable state.
type Experiment struct {
	name string

	infra          *topology.InfraSpec
	step           float64
	collectSeconds float64
	seed           uint64
	engine         func() core.Engine
	flags          LoopFlags

	startHour int
	endHour   int
	duration  float64 // seconds; overrides the hour window when set

	apm       workload.AccessMatrix
	workloads []Workload
	daemons   *Daemons
	faults    []faults.Injection
	setup     []func(*Run) error
}

// LoopFlags selects the time loop (core.LoopFlags, the one declaration);
// the zero value selects the production loop. The experiment layer hands it
// to core.Config whole.
type LoopFlags = core.LoopFlags

// Workload declares one application workload at one data center, driven by
// an open Poisson arrival process (workload.AppWorkload). Curves are given
// in GMT; the compile step shifts them into the experiment's run window.
// Every app@dc gets an "<app>:<dc>:active" gauge series (operations in
// flight) and an exact "<app>:<dc>:loggedin" population series; workloads
// sharing an app@dc (distinct Streams) share both, the population being the
// sum of their curves.
type Workload struct {
	App            string
	DC             string
	Users          workload.Curve // concurrent-user curve, GMT
	OpsPerUserHour float64
	// Ops declares the operation mix outright; leave it nil to launch a
	// named set.
	Ops []cascade.Op
	// Set names the operation set a workload without Ops launches: "VIS",
	// "PDM", "CAD@<dc>" (the CAD mix calibrated against data center <dc>)
	// or "CAD", which is CAD calibrated at the workload's own DC. Empty
	// selects the set named like App. A run builds each resolved set once
	// and every workload naming it shares its catalog and program table
	// (cascade.Programs).
	Set string
	// Weights biases the mix; nil selects a uniform mix.
	Weights []float64
	// APM overrides the experiment-level access matrix for this workload.
	APM workload.AccessMatrix
	// ThinBelow passes through to workload.AppWorkload.
	ThinBelow float64
	// Fluid engages the analytic client-aggregation tier (internal/fluid)
	// when Above is positive; the high-rate mirror of ThinBelow. Set it
	// directly or through WithFluid / the document "fluid" field / the
	// sweep axis "workloads.<app>.<dc>.fluid".
	Fluid Fluid
	// Stream passes through to workload.AppWorkload.Stream: the RNG stream
	// identity, defaulting to a hash of App@DC. Two workloads sharing App
	// and DC must set distinct non-zero Streams, or their arrival draws
	// would be perfectly correlated; validation rejects that assembly.
	Stream uint64
}

// Daemons declares the background daemons (§6.4.3): one SYNCHREP and one
// INDEXBUILD daemon per master data center, at the thesis' cadence
// (refdata.SynchRepIntervalMin, refdata.IndexBuildGapMin). Growth curves are
// given in GMT; the compile step shifts them into the run window.
type Daemons struct {
	Masters []string
	Growth  background.GrowthModel // MB/hour per data center, GMT
	// IndexHeadroom > 0 derives the index server's per-byte cost from the
	// master's peak owned data-generation rate (the Fig. 6-14
	// calibration); zero selects the background default.
	IndexHeadroom float64
}

// Option mutates an experiment under assembly. Options are applied in
// order and only set fields; an option error (an assembly-order mistake,
// such as configuring an undeclared workload) aborts New. Whether the
// values are usable is decided once, by the gate New runs afterwards.
type Option func(*Experiment) error

// New assembles an experiment from options and runs the gate on it.
func New(name string, opts ...Option) (*Experiment, error) {
	if name == "" {
		return nil, fmt.Errorf("experiment: needs a non-empty name")
	}
	e := &Experiment{
		name:           name,
		step:           0.01,
		collectSeconds: 60,
		startHour:      0,
		endHour:        0,
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, fmt.Errorf("experiment %s: %w", name, err)
		}
	}
	if err := e.validate(); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", name, err)
	}
	return e, nil
}

// WithInfra sets the infrastructure specification. The spec is deep-copied,
// so sweep mutators can never write through to a spec shared with other
// grid points.
func WithInfra(spec topology.InfraSpec) Option {
	return func(e *Experiment) error {
		cp := spec.Clone()
		e.infra = &cp
		return nil
	}
}

// WithStep sets the time-loop granularity in seconds (default 10 ms).
func WithStep(step float64) Option {
	return func(e *Experiment) error { e.step = step; return nil }
}

// WithCollectEvery sets the collector snapshot interval in simulated
// seconds (default 60).
func WithCollectEvery(seconds float64) Option {
	return func(e *Experiment) error { e.collectSeconds = seconds; return nil }
}

// WithSeed sets the base seed. Every derived stream (workload arrivals,
// cache decisions, sweep points) descends from it through core.DeriveSeed.
func WithSeed(seed uint64) Option {
	return func(e *Experiment) error { e.seed = seed; return nil }
}

// WithEngine sets an engine factory. The factory runs once per Compile, so
// every sweep point gets its own engine (worker pools must not be shared
// between concurrently running simulations). nil selects the sequential
// engine. Engines sweep the reference loop only (see the package doc).
func WithEngine(mk func() core.Engine) Option {
	return func(e *Experiment) error { e.engine = mk; return nil }
}

// WithWindow sets the simulated window of the day in GMT hours: the run
// covers [startHour, endHour) and every workload and growth curve is
// shifted so the simulation clock starts at startHour.
func WithWindow(startHour, endHour int) Option {
	return func(e *Experiment) error { e.startHour, e.endHour = startHour, endHour; return nil }
}

// WithDuration sets the run length in simulated seconds directly, for
// experiments that are not tied to a window of the day (the validation
// scenario's fixed-length runs). Mutually exclusive with WithWindow.
func WithDuration(seconds float64) Option {
	return func(e *Experiment) error { e.duration = seconds; return nil }
}

// WithLoopFlags selects the time loop.
func WithLoopFlags(f LoopFlags) Option {
	return func(e *Experiment) error { e.flags = f; return nil }
}

// WithAccessMatrix sets the experiment-level Access Pattern Matrix used by
// workloads that do not carry their own.
func WithAccessMatrix(apm workload.AccessMatrix) Option {
	return func(e *Experiment) error { e.apm = apm; return nil }
}

// WithWorkload appends one application workload. Declaration order is
// attachment order, which the determinism contract makes significant: the
// workloads' RNG streams are independent (core.DeriveSeed), but sources
// are polled in registration order.
func WithWorkload(w Workload) Option {
	return func(e *Experiment) error { e.workloads = append(e.workloads, w); return nil }
}

// WithDaemons declares the background daemons.
func WithDaemons(d Daemons) Option {
	return func(e *Experiment) error {
		if e.daemons != nil {
			return fmt.Errorf("daemons declared twice")
		}
		e.daemons = &d
		return nil
	}
}

// WithFault schedules fault injections (see internal/faults): each runs
// inject at At seconds and recover Duration seconds later, with the
// stabilize -> inject -> recover phase series and recovery metrics
// harvested into Result.Faults. Faults are cloned at assembly so sweep
// points mutating magnitude or duration never share fault state. No-op
// injections (zero magnitude or duration) are elided at compile time,
// keeping such runs bit-identical to fault-free ones.
func WithFault(injections ...faults.Injection) Option {
	return func(e *Experiment) error {
		for _, inj := range injections {
			if inj.Fault != nil {
				inj.Fault = inj.Fault.Clone()
			}
			e.faults = append(e.faults, inj)
		}
		return nil
	}
}

// WithSetup appends an arbitrary attachment hook running after workloads,
// daemons and probes are in place — the escape hatch for scenario wiring
// the declarative options do not cover (timed series launchers, custom
// sources, their probes). Hooks run in declaration order.
func WithSetup(fn func(*Run) error) Option {
	return func(e *Experiment) error { e.setup = append(e.setup, fn); return nil }
}

// Name returns the experiment's name.
func (e *Experiment) Name() string { return e.name }

// Seed returns the experiment's base seed.
func (e *Experiment) Seed() uint64 { return e.seed }

// Infra exposes the experiment's (owned) infrastructure specification for
// inspection.
func (e *Experiment) Infra() *topology.InfraSpec { return e.infra }

// DurationSeconds returns the simulated run length.
func (e *Experiment) DurationSeconds() float64 {
	if e.duration > 0 {
		return e.duration
	}
	return float64(e.endHour-e.startHour) * 3600
}

// StartHour returns the GMT hour the simulation clock starts at.
func (e *Experiment) StartHour() int { return e.startHour }

// validate is the one input gate. Options, document fields and sweep axes
// only set fields; New, Sweep.Validate (on every dry-applied value) and
// every sweep point run this, so the same value fails with the same rule
// whichever surface set it. Every check states what is usable, so NaN — for
// which every comparison is false — fails wherever a number is checked.
// Checks that need the built target (weights against the resolved mix,
// each fault against the topology) run at Compile.
func (e *Experiment) validate() error {
	if !positiveFinite(e.step) {
		return fmt.Errorf("step must be positive and finite, got %v", e.step)
	}
	if !positiveFinite(e.collectSeconds) {
		return fmt.Errorf("collect interval must be positive and finite, got %v", e.collectSeconds)
	}
	if err := e.validateWindow(); err != nil {
		return err
	}
	if e.infra == nil {
		return fmt.Errorf("needs an infrastructure (WithInfra)")
	}
	if err := e.infra.Validate(); err != nil {
		return err
	}
	if err := e.apm.Validate(); err != nil {
		return err
	}
	dcs := map[string]bool{}
	for _, dc := range e.infra.DCs {
		dcs[dc.Name] = true
	}
	if err := e.validateWorkloads(dcs); err != nil {
		return err
	}
	if err := e.validateDaemons(dcs); err != nil {
		return err
	}
	return faults.ValidateSchedule(e.faults)
}

// positiveFinite reports whether x is greater than zero and finite.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// nonNegativeFinite reports whether x is zero or positive and finite.
func nonNegativeFinite(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// maxRunSeconds is the longest run the gate accepts, a year. Compile lays
// out per-hour state for some runs (a fluid workload's segment schedule), so
// an unbounded duration would let one document ask for gigabytes.
const maxRunSeconds = 365 * 24 * 3600

// validateWindow checks the run window: exactly one of a positive duration
// of at most a year and an hour window [startHour, endHour) within the day.
// Zero leaves either unset.
func (e *Experiment) validateWindow() error {
	hours := e.startHour != 0 || e.endHour != 0
	switch {
	case e.duration != 0 && !positiveFinite(e.duration):
		return fmt.Errorf("duration must be positive and finite, got %v", e.duration)
	case e.duration > maxRunSeconds:
		return fmt.Errorf("duration %v s is longer than a year (%d s)", e.duration, maxRunSeconds)
	case hours && (e.startHour < 0 || e.endHour <= e.startHour || e.endHour > 24):
		return fmt.Errorf("bad hour window [%d, %d)", e.startHour, e.endHour)
	case e.duration != 0 && hours:
		return fmt.Errorf("WithDuration and WithWindow are mutually exclusive")
	case e.duration == 0 && !hours:
		return fmt.Errorf("needs a run window (WithWindow or WithDuration)")
	}
	return nil
}

func (e *Experiment) validateWorkloads(dcs map[string]bool) error {
	type wlIdentity struct {
		app, dc string
		stream  uint64
	}
	seen := map[wlIdentity]bool{}
	fluidSeen := map[wlIdentity]bool{}
	for i, w := range e.workloads {
		if w.App == "" || w.DC == "" {
			return fmt.Errorf("workload %d needs app and dc names", i)
		}
		// Compare effective streams: Stream 0 derives from the App@DC hash,
		// so an explicit Stream equal to another workload's derived hash
		// collides just the same.
		id := wlIdentity{w.App, w.DC, workload.EffectiveStream(w.App, w.DC, w.Stream)}
		if seen[id] {
			return fmt.Errorf("duplicate workload %s@%s: set distinct Workload.Stream values so each gets an independent RNG stream", w.App, w.DC)
		}
		seen[id] = true
		if !dcs[w.DC] {
			return fmt.Errorf("workload %s references unknown DC %q", w.App, w.DC)
		}
		if !positiveFinite(w.OpsPerUserHour) {
			return fmt.Errorf("workload %s@%s: operation rate must be positive and finite, got %v", w.App, w.DC, w.OpsPerUserHour)
		}
		if err := validateCurve(w.Users); err != nil {
			return fmt.Errorf("workload %s@%s: users %w", w.App, w.DC, err)
		}
		if w.Ops != nil && w.Set != "" {
			return fmt.Errorf("workload %s@%s declares both Ops and Set %q; give one", w.App, w.DC, w.Set)
		}
		if w.Ops == nil {
			if err := w.checkSet(dcs); err != nil {
				return fmt.Errorf("workload %s@%s: %w", w.App, w.DC, err)
			}
		}
		if err := validateWeights(w.Weights); err != nil {
			return fmt.Errorf("workload %s@%s: %w", w.App, w.DC, err)
		}
		if w.APM == nil && e.apm == nil {
			return fmt.Errorf("workload %s@%s needs an access matrix (WithAccessMatrix or Workload.APM)", w.App, w.DC)
		}
		if math.IsNaN(w.ThinBelow) {
			return fmt.Errorf("workload %s@%s: thinning threshold ThinBelow is NaN", w.App, w.DC)
		}
		if !nonNegativeFinite(w.Fluid.Above) {
			return fmt.Errorf("workload %s@%s: fluid threshold Above must be finite and non-negative, got %v", w.App, w.DC, w.Fluid.Above)
		}
		if !(w.Fluid.RhoMax >= 0 && w.Fluid.RhoMax < 1) {
			return fmt.Errorf("workload %s@%s: fluid guard RhoMax %v outside [0, 1)", w.App, w.DC, w.Fluid.RhoMax)
		}
		if w.Fluid.Above > 0 {
			// The analytic probe keys are derived from App@DC alone, so two
			// fluid-configured workloads sharing that identity would collide
			// in the collector.
			fid := wlIdentity{app: w.App, dc: w.DC}
			if fluidSeen[fid] {
				return fmt.Errorf("two fluid-configured workloads %s@%s: only one per app@dc may engage the fluid tier", w.App, w.DC)
			}
			fluidSeen[fid] = true
		}
	}
	return nil
}

func (e *Experiment) validateDaemons(dcs map[string]bool) error {
	d := e.daemons
	if d == nil {
		return nil
	}
	if len(d.Masters) == 0 {
		return fmt.Errorf("daemons need at least one master")
	}
	for _, m := range d.Masters {
		if !dcs[m] {
			return fmt.Errorf("daemon master %q is not a data center of the spec", m)
		}
	}
	for _, dc := range d.Growth.DCs() {
		if !dcs[dc] {
			return fmt.Errorf("daemon growth curve for unknown DC %q", dc)
		}
		if err := validateCurve(d.Growth[dc]); err != nil {
			return fmt.Errorf("daemon growth curve for %s: %w", dc, err)
		}
	}
	if !nonNegativeFinite(d.IndexHeadroom) {
		return fmt.Errorf("daemon index headroom %v must be finite and non-negative (0 selects the default)", d.IndexHeadroom)
	}
	if e.apm == nil {
		return fmt.Errorf("daemons need an access matrix (WithAccessMatrix)")
	}
	return e.validateDaemonReach()
}

// validateDaemonReach checks what the daemons' launches dereference: an
// access-matrix row for every data center that generates data (the
// SYNCHREP volumes read it), the app, db, fs and idx tiers at every master,
// and an fs tier wherever SYNCHREP pulls from or pushes to — every other
// generating site whose files a master owns, and every site but a file's
// creator and its master.
func (e *Experiment) validateDaemonReach() error {
	d := e.daemons
	tiers := map[string]map[string]bool{}
	for _, dc := range e.infra.DCs {
		tiers[dc.Name] = map[string]bool{}
		for _, t := range dc.Tiers {
			tiers[dc.Name][t.Name] = true
		}
	}
	needFS := func(dc, why string) error {
		if !tiers[dc]["fs"] {
			return fmt.Errorf("daemon SYNCHREP %s DC %s, which has no \"fs\" tier", why, dc)
		}
		return nil
	}
	var growing []string
	for _, dc := range d.Growth.DCs() {
		if c := d.Growth[dc]; slices.ContainsFunc(c[:], func(v float64) bool { return v > 0 }) {
			if e.apm[dc] == nil {
				return fmt.Errorf("daemon growth curve for %s: the access matrix has no row for %s", dc, dc)
			}
			growing = append(growing, dc)
		}
	}
	for _, m := range d.Masters {
		for _, tier := range []string{"app", "db", "fs", "idx"} {
			if !tiers[m][tier] {
				return fmt.Errorf("daemon master %s has no %q tier", m, tier)
			}
		}
		for _, src := range growing {
			if !(e.apm[src][m] > 0) {
				continue
			}
			if src != m {
				if err := needFS(src, "pulls from"); err != nil {
					return err
				}
			}
			for _, dst := range e.infra.DCs {
				if dst.Name != m && dst.Name != src {
					if err := needFS(dst.Name, "pushes to"); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// validateWeights rejects a mix weight that is negative or not finite, and
// weights that do not sum to a positive finite total — all zero, say, which
// would leave the mix's cumulative table NaN. Nil selects a uniform mix.
// Whether there is one weight per operation waits for the resolved mix
// (attachWorkloads).
func validateWeights(weights []float64) error {
	if weights == nil {
		return nil
	}
	total := 0.0
	for i, v := range weights {
		if !nonNegativeFinite(v) {
			return fmt.Errorf("weight %d is %v; weights must be finite and non-negative", i, v)
		}
		total += v
	}
	if !positiveFinite(total) {
		return fmt.Errorf("weights %v sum to %v; they must sum to a positive finite total", weights, total)
	}
	return nil
}

// validateCurve rejects a curve with a negative or non-finite hour value.
func validateCurve(c workload.Curve) error {
	for h, v := range c {
		if !nonNegativeFinite(v) {
			return fmt.Errorf("hour %d value %v must be finite and non-negative", h, v)
		}
	}
	return nil
}

// clone returns a copy of e that shares nothing applyPath writes: the
// infrastructure spec is deep-copied, the workloads copied and each fault
// injection's fault cloned. Everything else is shared, read-only.
func (e *Experiment) clone() *Experiment {
	c := *e
	infra := e.infra.Clone()
	c.infra = &infra
	c.workloads = slices.Clone(e.workloads)
	c.faults = slices.Clone(e.faults)
	for i := range c.faults {
		if f := c.faults[i].Fault; f != nil {
			c.faults[i].Fault = f.Clone()
		}
	}
	return &c
}

// reset makes c, a clone of e, equal to e again in everything applyPath
// writes, reusing c's storage, so Sweep.Validate dry-applies a whole grid
// on one clone. What applyPath never writes stays the clone's own: each
// tier's storage specs behind their pointers, and a fault whose magnitude
// the last value left as e has it (applyPath writes a fault only through
// SetMagnitude; every other injection field is copied back).
func (e *Experiment) reset(c *Experiment) {
	infra, workloads, injections := c.infra, c.workloads, c.faults
	*c = *e
	c.infra, c.workloads, c.faults = infra, workloads, injections
	for i := range infra.DCs {
		tiers := infra.DCs[i].Tiers
		infra.DCs[i] = e.infra.DCs[i]
		infra.DCs[i].Tiers = tiers
		for j := range tiers {
			t := &tiers[j]
			raid, san, sanLink := t.Server.RAID, t.SAN, t.SANLink
			*t = e.infra.DCs[i].Tiers[j]
			t.Server.RAID, t.SAN, t.SANLink = raid, san, sanLink
		}
	}
	copy(infra.WAN, e.infra.WAN)
	maps.Copy(infra.Clients, e.infra.Clients)
	copy(workloads, e.workloads)
	for i := range injections {
		f := injections[i].Fault
		injections[i] = e.faults[i]
		injections[i].Fault = f
		if mf, ok := f.(faults.MagnitudeFault); ok && mf.Magnitude() != e.faults[i].Fault.(faults.MagnitudeFault).Magnitude() {
			injections[i].Fault = e.faults[i].Fault.Clone()
		}
	}
}

// Run is a compiled experiment: the built simulation and topology with
// everything attached, ready for time to advance. Execute runs the window
// and harvests the Result; callers needing mid-run control can drive
// Sim directly instead.
type Run struct {
	Experiment *Experiment
	Sim        *core.Simulation
	Inf        *topology.Infrastructure

	// Sync / Idx expose the attached background daemons by master DC.
	Sync map[string]*background.SyncDaemon
	Idx  map[string]*background.IndexDaemon
	// Growth is the window-shifted growth model driving the daemons.
	Growth background.GrowthModel
	// Faults is the attached fault controller; nil when the scenario has
	// no effective injections.
	Faults *faults.Controller

	// probes gathers every probe Compile's phases declare, registered as one
	// batch at its end.
	probes []metrics.Probe
	// catalogs are the run's operation catalogs, and sources its workloads'
	// sources, in declaration order, one slab.
	catalogs []catalog
	sources  []source
	executed bool
}

// Compile builds the runnable simulation: simulation core, topology,
// infrastructure probes, workloads (in declaration order), daemons, faults,
// setup hooks. The phases run in that fixed order — it is part of
// the determinism contract, since source registration order is poll order.
// The probes of every phase register as one batch, in that order, before
// the setup hooks: nothing samples them before the run, and one batch
// grows the collector's tables once.
func (e *Experiment) Compile() (*Run, error) {
	var eng core.Engine
	if e.engine != nil {
		eng = e.engine()
	}
	sim := core.NewSimulation(core.Config{
		Step:         e.step,
		CollectEvery: int(math.Round(e.collectSeconds / e.step)),
		Seed:         e.seed,
		Engine:       eng,
		LoopFlags:    e.flags,
	})
	// Every way out but success — an error below, or a panic unwinding
	// through here — releases the engine's workers.
	compiled := false
	defer func() {
		if !compiled {
			sim.Shutdown()
		}
	}()
	inf, err := topology.Build(sim, *e.infra)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", e.name, err)
	}

	r := &Run{
		Experiment: e,
		Sim:        sim,
		Inf:        inf,
		Sync:       map[string]*background.SyncDaemon{},
		Idx:        map[string]*background.IndexDaemon{},
		probes:     inf.AppendProbes(nil),
	}
	series, err := e.attachWorkloads(r)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", e.name, err)
	}
	if err := e.attachDaemons(r); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", e.name, err)
	}
	if e.daemons != nil {
		series += 2 * len(e.daemons.Masters) // SYNCHREP and INDEXBUILD at each master
	}
	sim.Responses.Reserve(series)
	// Faults attach after the daemons so failover injections can validate
	// against the populated Sync map.
	ctrl, err := faults.AttachSource(faults.Target{Sim: sim, Infra: inf, Sync: r.Sync}, e.faults)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", e.name, err)
	}
	r.Faults = ctrl
	if ctrl != nil {
		r.probes = append(r.probes, ctrl.Probes()...)
	}
	sim.Collector.Register(r.probes...)
	r.probes = nil
	for _, fn := range e.setup {
		if err := fn(r); err != nil {
			return nil, fmt.Errorf("experiment %s: setup: %w", e.name, err)
		}
	}
	compiled = true
	return r, nil
}

// attachWorkloads wires the declared workloads as AppWorkload sources, in
// declaration order, shifting population curves into the run window. It
// returns how many response series they can record: one per operation of
// each workload's catalog.
func (e *Experiment) attachWorkloads(r *Run) (series int, err error) {
	r.catalogs = make([]catalog, 0, len(e.workloads))
	r.sources = make([]source, len(e.workloads))
	for i := range e.workloads {
		w := &e.workloads[i]
		cat, err := r.catalog(w, e.step)
		if err != nil {
			return 0, fmt.Errorf("workload %s@%s: %w", w.App, w.DC, err)
		}
		ops := cat.ops
		// The mix length is only known once the set is built, so the weights
		// check lives here rather than in validate(): a mismatch must be an
		// error, not the runtime panic AppWorkload reserves for wiring bugs.
		if w.Weights != nil && len(w.Weights) != len(ops) {
			return 0, fmt.Errorf("workload %s@%s: %d weights for %d operations", w.App, w.DC, len(w.Weights), len(ops))
		}
		series += len(ops)
		apm := w.APM
		if apm == nil {
			apm = e.apm
		}
		prefix := w.App + ":" + w.DC
		src := &r.sources[i].app
		*src = workload.AppWorkload{
			App:            w.App,
			DC:             w.DC,
			Users:          w.Users.Shift(e.startHour),
			OpsPerUserHour: w.OpsPerUserHour,
			Ops:            ops,
			Weights:        w.Weights,
			APM:            apm,
			Inf:            r.Inf,
			GaugePrefix:    prefix,
			ThinBelow:      w.ThinBelow,
			Stream:         w.Stream,
			Programs:       cat.progs,
		}
		// Fluid-configured workloads register through the fluid tier,
		// which wraps the same source in the precomputed mode schedule; at
		// Fluid.Above = 0 the wrapper is structurally elided, so the run is
		// bit-identical to one that never configured fluid.
		if w.Fluid.Above > 0 {
			if r.sources[i].fluid, err = e.attachFluid(r, w, src); err != nil {
				return 0, err
			}
		} else {
			r.Sim.AddSource(src)
		}
		if e.firstOfApp(i) {
			// One pair per app@dc: twins share the interned active gauge,
			// and the loggedin series samples their population curves at
			// each snapshot instant, exact in every arrival mode.
			r.probes = append(r.probes, r.Sim.GaugeProbe(prefix+":active"), metrics.Probe{
				Key:    prefix + ":loggedin",
				Sample: metrics.SampleFunc(func(float64) float64 { return r.loggedIn(i) }),
			})
		}
	}
	return series, nil
}

// firstOfApp reports whether workload i is the first declared at its
// app@dc.
func (e *Experiment) firstOfApp(i int) bool {
	w := &e.workloads[i]
	for j := range i {
		if o := &e.workloads[j]; o.App == w.App && o.DC == w.DC {
			return false
		}
	}
	return true
}

// loggedIn is the population of workload i's app@dc now: the sum of the
// curves of i and its later twins.
func (r *Run) loggedIn(i int) float64 {
	first := &r.sources[i].app
	now := r.Sim.Clock().NowSeconds()
	users := first.Users.At(now)
	for j := i + 1; j < len(r.sources); j++ {
		if w := &r.sources[j].app; w.App == first.App && w.DC == first.DC {
			users += w.Users.At(now)
		}
	}
	return users
}

// source is one workload's launcher and, when the fluid tier carries it,
// the tier's schedule.
type source struct {
	app   workload.AppWorkload
	fluid []fluid.Segment
}

// expectResponses states what the workloads are expected to record over
// [t0, t1) simulated seconds (metrics.Responses.Expect): each workload's
// expected launches — over the discrete segments of its fluid schedule
// when it has one, the only ones that launch — split by its mix.
func (r *Run) expectResponses(t0, t1 float64) {
	n := 0
	for i := range r.sources {
		n += len(r.sources[i].app.Ops)
	}
	exp := make([]metrics.Expected, 0, n)
	for i := range r.sources {
		src := &r.sources[i]
		launches := 0.0
		if src.fluid == nil {
			launches = src.app.ExpectedLaunches(t0, t1)
		}
		for _, seg := range src.fluid {
			if lo, hi := max(t0, seg.Start), min(t1, seg.End); !seg.Fluid && lo < hi {
				launches += src.app.ExpectedLaunches(lo, hi)
			}
		}
		exp = src.app.AppendExpected(exp, launches)
	}
	r.Sim.Responses.Expect(exp)
}

// attachDaemons wires one SYNCHREP and one INDEXBUILD daemon per master, in
// the declared master order, with growth curves shifted into the run
// window. Index-build capacity follows the declared headroom over the
// master's peak owned generation rate — barely above the peak, so backlog
// accumulates through the busy hours and drains afterwards (the cumulative
// effect behind Fig. 6-14's ~63-minute peak).
func (e *Experiment) attachDaemons(r *Run) error {
	if e.daemons == nil {
		return nil
	}
	d := e.daemons
	r.Growth = background.GrowthModel{}
	for dc, c := range d.Growth {
		r.Growth[dc] = c.Shift(e.startHour)
	}
	for _, master := range d.Masters {
		sync := &background.SyncDaemon{
			Inf:      r.Inf,
			Master:   master,
			APM:      e.apm,
			Growth:   r.Growth,
			Interval: refdata.SynchRepIntervalMin * 60,
		}
		idx := &background.IndexDaemon{
			Inf:           r.Inf,
			Master:        master,
			APM:           e.apm,
			Growth:        r.Growth,
			Gap:           refdata.IndexBuildGapMin * 60,
			CyclesPerByte: e.indexCyclesPerByte(r.Growth, master),
		}
		r.Sync[master] = sync
		r.Idx[master] = idx
		r.Sim.AddSource(sync)
		// Keep the handle: the daemon parks its schedule while a build runs
		// and re-arms it through RearmSource from the completion callback.
		idx.Handle = r.Sim.AddSource(idx)
	}
	return nil
}

// indexCyclesPerByte resolves the index server's per-byte cycle cost: a
// positive headroom derives it from the master's peak owned generation
// rate, and the background default applies as the fallback.
func (e *Experiment) indexCyclesPerByte(growth background.GrowthModel, master string) float64 {
	d := e.daemons
	if d.IndexHeadroom <= 0 {
		return background.DefaultIndexCyclesPerByte
	}
	peakMBh := 0.0
	for h := 0; h < 24; h++ {
		t := float64(h)*3600 + 1800
		rate := 0.0
		// Sorted iteration: summing in map order would make the derived
		// cycle cost differ by ulps between runs.
		for _, dc := range growth.DCs() {
			rate += growth.RateMBh(dc, t) * e.apm[dc][master]
		}
		if rate > peakMBh {
			peakMBh = rate
		}
	}
	if peakMBh <= 0 {
		return background.DefaultIndexCyclesPerByte
	}
	throughputBps := peakMBh * d.IndexHeadroom * 1e6 / 3600
	return apps.ServerGHz * 1e9 / throughputBps
}

// Execute advances the simulation through the run window and harvests the
// Result. It may be called once per Run; the simulation is left running
// (not shut down), so callers owning longer lifecycles can keep driving or
// inspecting it — Experiment.Run is the one-shot convenience that also
// releases engine resources. A run the platform could not carry — an
// operation whose next step has no surviving route (*topology.NoRouteError)
// — stops at the window it failed in and returns that error, wrapped in a
// *core.OpError naming the operation, the client's data center and the
// simulated second. Knowing the window, Execute sizes the workloads'
// response series from their expected launches before it runs
// (expectResponses), and the harvest trims the room they did not use
// (metrics.Responses.Trim).
func (r *Run) Execute() (*Result, error) {
	if r.executed {
		return nil, fmt.Errorf("experiment %s: Execute called twice", r.Experiment.name)
	}
	r.executed = true
	d, t0 := r.Experiment.DurationSeconds(), r.Sim.Clock().NowSeconds()
	r.expectResponses(t0, t0+d)
	r.Sim.RunFor(d)
	if err := r.Sim.Err(); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", r.Experiment.name, err)
	}
	return harvest(r), nil
}

// Run compiles and executes the experiment, then releases engine
// resources — also when the run panics. The returned Result retains the
// (shut down) simulation for metric inspection.
func (e *Experiment) Run() (*Result, error) {
	r, err := e.Compile()
	if err != nil {
		return nil, err
	}
	defer r.Sim.Shutdown()
	return r.Execute()
}

// Result is the uniform harvest of one experiment run: run statistics,
// every collector series, and the response-time populations.
type Result struct {
	Name  string
	Seed  uint64
	Stats core.RunStats
	// Series holds every registered collector series by key.
	Series map[string]*metrics.Series
	// Responses tracks operation response times by type and location.
	Responses *metrics.Responses
	// Faults is the recovery report of a chaos run — applied transition
	// times, peak backlog, time-to-reroute, time-to-drain and the fault:
	// series (phase, backlog, backup arrivals). Nil for fault-free runs.
	// Fault series live here rather than in Series so Digest, which hashes
	// Series, compares a faulted run against its healthy baseline on the
	// simulation outcome alone.
	Faults *faults.Report
	// Sim is the finished simulation, for inspection beyond the uniform
	// harvest (gauges, daemon state through Run).
	Sim *core.Simulation
	// Run is the compiled experiment the result came from.
	Run *Run
}

func harvest(r *Run) *Result {
	keys := r.Sim.Collector.Keys()
	res := &Result{
		Name:      r.Experiment.name,
		Seed:      r.Experiment.seed,
		Stats:     r.Sim.Stats(),
		Series:    make(map[string]*metrics.Series, len(keys)),
		Responses: r.Sim.Responses,
		Sim:       r.Sim,
		Run:       r,
	}
	for _, key := range keys {
		// fault: series belong to the fault report, not the ordinary series
		// set: Digest hashes Series, and the recovery telemetry must not
		// make a faulted run incomparable with its healthy baseline.
		if strings.HasPrefix(key, "fault:") {
			continue
		}
		res.Series[key] = r.Sim.Collector.Series(key)
	}
	if r.Faults != nil {
		res.Faults = r.Faults.Finalize()
	}
	r.Sim.Responses.Trim()
	return res
}

// SeriesKeys returns the result's series keys in sorted order.
func (res *Result) SeriesKeys() []string {
	keys := make([]string, 0, len(res.Series))
	for k := range res.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
