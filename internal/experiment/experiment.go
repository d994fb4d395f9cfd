// Package experiment is the declarative what-if surface of the simulator:
// one Experiment value — assembled from functional options or compiled from
// a JSON scenario document — describes everything a run needs (the
// infrastructure, the workloads, the background daemons, the probes, the
// run window, the engine and the seed), and one pipeline turns it into
// results (Compile: build simulation → build topology → attach workloads
// and daemons → register probes → run → harvest a uniform Result).
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
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/background"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/faults"
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
	probes    []func(*Run) []metrics.Probe
	setup     []func(*Run) error
}

// LoopFlags selects the time loop (core.LoopFlags, the one declaration);
// the zero value selects the production loop. The experiment layer hands it
// to core.Config whole.
type LoopFlags = core.LoopFlags

// Workload declares one application workload at one data center, driven by
// an open Poisson arrival process (workload.AppWorkload). Curves are given
// in GMT; the compile step shifts them into the experiment's run window.
type Workload struct {
	App            string
	DC             string
	Users          workload.Curve // concurrent-user curve, GMT
	OpsPerUserHour float64
	// Ops is the operation mix. When the mix depends on the built
	// infrastructure (calibrated operations), leave it nil and set OpsFn.
	Ops []cascade.Op
	// OpsFn builds the mix against the built infrastructure. Workloads with
	// equal OpsKey share a single invocation per compile.
	OpsFn  func(inf *topology.Infrastructure, step float64) ([]cascade.Op, error)
	OpsKey string // defaults to App+"@"+DC
	// Weights biases the mix; nil selects a uniform mix.
	Weights []float64
	// APM overrides the experiment-level access matrix for this workload.
	APM workload.AccessMatrix
	// Gauges registers the "<app>:<dc>:active" gauge probe and an exact
	// "<app>:<dc>:loggedin" population probe with the collector.
	Gauges bool
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
// INDEXBUILD daemon per master data center. Growth curves are given in
// GMT; the compile step shifts them into the run window.
type Daemons struct {
	Masters []string
	Growth  background.GrowthModel // MB/hour per data center, GMT
	// SyncIntervalSec / IndexGapSec default to the thesis values
	// (refdata.SynchRepIntervalMin / refdata.IndexBuildGapMin).
	SyncIntervalSec float64
	IndexGapSec     float64
	// IndexCyclesPerByte fixes the index server's per-byte cost. When zero,
	// IndexHeadroom > 0 derives it from the master's peak owned
	// data-generation rate (the Fig. 6-14 calibration); otherwise the
	// background default applies.
	IndexCyclesPerByte float64
	IndexHeadroom      float64
}

// Option mutates an experiment under assembly. Options are applied in
// order; an option error aborts New.
type Option func(*Experiment) error

// New assembles an experiment from options and validates it.
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

// positiveFinite reports whether x is a usable duration: greater than zero
// and finite. NaN fails the comparison, so it is rejected too.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// WithStep sets the time-loop granularity in seconds (default 10 ms).
func WithStep(step float64) Option {
	return func(e *Experiment) error {
		if !positiveFinite(step) {
			return fmt.Errorf("step must be positive and finite, got %v", step)
		}
		e.step = step
		return nil
	}
}

// WithCollectEvery sets the collector snapshot interval in simulated
// seconds (default 60).
func WithCollectEvery(seconds float64) Option {
	return func(e *Experiment) error {
		if !positiveFinite(seconds) {
			return fmt.Errorf("collect interval must be positive and finite, got %v", seconds)
		}
		e.collectSeconds = seconds
		return nil
	}
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

// WithEngineInstance wires an already-constructed engine — the adapter for
// legacy config structs that carry a core.Engine value. The instance is
// handed to the first Compile; it must not be used for sweeps, whose points
// need one engine each (use WithEngine with a factory there).
func WithEngineInstance(eng core.Engine) Option {
	if eng == nil {
		return func(*Experiment) error { return nil }
	}
	return WithEngine(func() core.Engine { return eng })
}

// WithWindow sets the simulated window of the day in GMT hours: the run
// covers [startHour, endHour) and every workload and growth curve is
// shifted so the simulation clock starts at startHour.
func WithWindow(startHour, endHour int) Option {
	return func(e *Experiment) error {
		if startHour < 0 || endHour <= startHour || endHour > 24 {
			return fmt.Errorf("bad hour window [%d, %d)", startHour, endHour)
		}
		e.startHour, e.endHour = startHour, endHour
		return nil
	}
}

// WithDuration sets the run length in simulated seconds directly, for
// experiments that are not tied to a window of the day (the validation
// scenario's fixed-length runs). Mutually exclusive with WithWindow.
func WithDuration(seconds float64) Option {
	return func(e *Experiment) error {
		if !positiveFinite(seconds) {
			return fmt.Errorf("duration must be positive and finite, got %v", seconds)
		}
		e.duration = seconds
		return nil
	}
}

// WithLoopFlags selects the time loop.
func WithLoopFlags(f LoopFlags) Option {
	return func(e *Experiment) error { e.flags = f; return nil }
}

// WithAccessMatrix sets the experiment-level Access Pattern Matrix used by
// workloads that do not carry their own.
func WithAccessMatrix(apm workload.AccessMatrix) Option {
	return func(e *Experiment) error {
		if err := apm.Validate(); err != nil {
			return err
		}
		e.apm = apm
		return nil
	}
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

// WithProbes registers extra collector probes once the simulation and
// topology exist. Infrastructure probes are always registered; this adds
// scenario-specific ones (gauge series, derived metrics).
func WithProbes(mk func(*Run) []metrics.Probe) Option {
	return func(e *Experiment) error { e.probes = append(e.probes, mk); return nil }
}

// WithSetup appends an arbitrary attachment hook running after workloads,
// daemons and probes are in place — the escape hatch for scenario wiring
// the declarative options do not cover (timed series launchers, custom
// sources). Hooks run in declaration order.
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

func (e *Experiment) validate() error {
	if e.infra == nil {
		return fmt.Errorf("needs an infrastructure (WithInfra)")
	}
	if err := e.duration0(); err != nil {
		return err
	}
	dcs := map[string]bool{}
	for _, dc := range e.infra.DCs {
		dcs[dc.Name] = true
	}
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
		if w.OpsPerUserHour <= 0 {
			return fmt.Errorf("workload %s@%s needs a positive operation rate", w.App, w.DC)
		}
		if w.Ops == nil && w.OpsFn == nil {
			return fmt.Errorf("workload %s@%s needs an operation mix (Ops or OpsFn)", w.App, w.DC)
		}
		if w.APM == nil && e.apm == nil {
			return fmt.Errorf("workload %s@%s needs an access matrix (WithAccessMatrix or Workload.APM)", w.App, w.DC)
		}
		if w.Fluid.Above < 0 {
			return fmt.Errorf("workload %s@%s: fluid threshold Above must not be negative", w.App, w.DC)
		}
		if w.Fluid.RhoMax < 0 || w.Fluid.RhoMax >= 1 {
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
	if e.daemons != nil {
		if len(e.daemons.Masters) == 0 {
			return fmt.Errorf("daemons need at least one master")
		}
		for _, m := range e.daemons.Masters {
			if !dcs[m] {
				return fmt.Errorf("daemon master %q is not a data center of the spec", m)
			}
		}
		if e.apm == nil {
			return fmt.Errorf("daemons need an access matrix (WithAccessMatrix)")
		}
	}
	return nil
}

func (e *Experiment) duration0() error {
	if e.duration > 0 && e.endHour > e.startHour {
		return fmt.Errorf("WithDuration and WithWindow are mutually exclusive")
	}
	if e.duration <= 0 && e.endHour <= e.startHour {
		return fmt.Errorf("needs a run window (WithWindow or WithDuration)")
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

	executed bool
}

// Compile builds the runnable simulation: simulation core, topology,
// infrastructure probes, workloads (in declaration order), daemons, extra
// probes, setup hooks. The phases run in that fixed order — it is part of
// the determinism contract, since source registration order is poll order.
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
	inf.RegisterProbes(sim.Collector)

	r := &Run{
		Experiment: e,
		Sim:        sim,
		Inf:        inf,
		Sync:       map[string]*background.SyncDaemon{},
		Idx:        map[string]*background.IndexDaemon{},
	}
	if err := e.attachWorkloads(r); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", e.name, err)
	}
	if err := e.attachDaemons(r); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", e.name, err)
	}
	// Faults attach after the daemons so failover injections can validate
	// against the populated Sync map, and before the extra probes so
	// scenario probes may read the controller through the Run.
	ctrl, err := faults.Attach(faults.Target{Sim: sim, Infra: inf, Sync: r.Sync}, e.faults)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", e.name, err)
	}
	r.Faults = ctrl
	for _, mk := range e.probes {
		for _, p := range mk(r) {
			sim.Collector.Register(p)
		}
	}
	for _, fn := range e.setup {
		if err := fn(r); err != nil {
			return nil, fmt.Errorf("experiment %s: setup: %w", e.name, err)
		}
	}
	compiled = true
	return r, nil
}

// attachWorkloads wires the declared workloads as AppWorkload sources, in
// declaration order, shifting population curves into the run window.
func (e *Experiment) attachWorkloads(r *Run) error {
	opsMemo := map[string][]cascade.Op{}
	for i := range e.workloads {
		w := &e.workloads[i]
		ops := w.Ops
		if ops == nil {
			key := w.OpsKey
			if key == "" {
				key = w.App + "@" + w.DC
			}
			var ok bool
			if ops, ok = opsMemo[key]; !ok {
				built, err := w.OpsFn(r.Inf, e.step)
				if err != nil {
					return fmt.Errorf("workload %s@%s: %w", w.App, w.DC, err)
				}
				opsMemo[key] = built
				ops = built
			}
		}
		// The mix length is only known once OpsFn has run, so the weights
		// check lives here rather than in validate(): a mismatch must be an
		// error, not the runtime panic AppWorkload reserves for wiring bugs.
		if w.Weights != nil && len(w.Weights) != len(ops) {
			return fmt.Errorf("workload %s@%s: %d weights for %d operations", w.App, w.DC, len(w.Weights), len(ops))
		}
		apm := w.APM
		if apm == nil {
			apm = e.apm
		}
		prefix := ""
		if w.Gauges {
			prefix = w.App + ":" + w.DC
		}
		src := &workload.AppWorkload{
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
		}
		// Fluid-configured workloads register through the fluid tier,
		// which wraps the same source in the precomputed mode schedule; at
		// Fluid.Above = 0 the wrapper is structurally elided, so the run is
		// bit-identical to one that never configured fluid.
		if w.Fluid.Above > 0 {
			if err := e.attachFluid(r, w, src, ops); err != nil {
				return err
			}
		} else {
			r.Sim.AddSource(src)
		}
		if w.Gauges {
			r.Sim.Collector.Register(r.Sim.GaugeProbe(prefix + ":active"))
			// The loggedin series samples the population curve directly at
			// each snapshot instant: under thinning the workload is only
			// polled at arrival instants, so its loggedin gauge goes stale
			// between arrivals, while the curve is exact in every mode.
			users, sim := src.Users, r.Sim
			r.Sim.Collector.Register(metrics.Probe{
				Key:    prefix + ":loggedin",
				Sample: func(float64) float64 { return users.At(sim.Clock().NowSeconds()) },
			})
		}
	}
	return nil
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
	interval := d.SyncIntervalSec
	if interval <= 0 {
		interval = refdata.SynchRepIntervalMin * 60
	}
	gap := d.IndexGapSec
	if gap <= 0 {
		gap = refdata.IndexBuildGapMin * 60
	}
	for _, master := range d.Masters {
		sync := &background.SyncDaemon{
			Inf:      r.Inf,
			Master:   master,
			APM:      e.apm,
			Growth:   r.Growth,
			Interval: interval,
		}
		idx := &background.IndexDaemon{
			Inf:           r.Inf,
			Master:        master,
			APM:           e.apm,
			Growth:        r.Growth,
			Gap:           gap,
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

// indexCyclesPerByte resolves the index server's per-byte cycle cost: an
// explicit value wins; otherwise a positive headroom derives it from the
// master's peak owned generation rate, and the background default applies
// as the fallback.
func (e *Experiment) indexCyclesPerByte(growth background.GrowthModel, master string) float64 {
	d := e.daemons
	if d.IndexCyclesPerByte > 0 {
		return d.IndexCyclesPerByte
	}
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
// simulated second.
func (r *Run) Execute() (*Result, error) {
	if r.executed {
		return nil, fmt.Errorf("experiment %s: Execute called twice", r.Experiment.name)
	}
	r.executed = true
	r.Sim.RunFor(r.Experiment.DurationSeconds())
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
	res := &Result{
		Name:      r.Experiment.name,
		Seed:      r.Experiment.seed,
		Stats:     r.Sim.Stats(),
		Series:    map[string]*metrics.Series{},
		Responses: r.Sim.Responses,
		Sim:       r.Sim,
		Run:       r,
	}
	for _, key := range r.Sim.Collector.Keys() {
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
