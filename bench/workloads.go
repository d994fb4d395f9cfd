package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/scenarios"
)

// size fixes the simulated spans of every workload. fullSize is what the
// benchmark measures; smokeSize is the ~1/50 cut bench_test.go drives so
// the tier-1 run stays inside a few seconds.
type size struct {
	name string
	// refScale scales the length of the reference slices (see refkernel.go).
	refScale float64
	// histories is how many scenario seeds one cycle of a run walks through
	// (see histories).
	histories int
	// peak_hour / peak_hour_sharded: simulated seconds of untimed warm-up,
	// then of timed RunFor. The sharded engine is ~2.5x slower on the
	// reference box, so its timed span is half as long: a whole cycle of
	// histories then fits one run's budget.
	peakWarm, peakTimed, shardedTimed float64
	// validation_day: launch window and total run, simulated seconds (0
	// selects the thesis defaults, ~34 and ~38 minutes).
	validationLaunch, validationRun float64
	// day_night: simulated hours.
	dayNightHours float64
	// campaign: document run window, simulated seconds (0 keeps the
	// document's own 900).
	campaignSeconds float64
}

var (
	fullSize  = size{name: "full", refScale: 1, histories: 24, peakWarm: 90, peakTimed: 300, shardedTimed: 150, dayNightHours: 24}
	smokeSize = size{name: "smoke", refScale: 0.02, histories: 1, peakWarm: 2, peakTimed: 6, shardedTimed: 3,
		validationLaunch: 40, validationRun: 45, dayNightHours: 0.5, campaignSeconds: 320}
)

// chaosDocument is the campaign's scenario document, relative to the
// repository root.
const chaosDocument = "examples/chaos.json"

// workload is one named set of inputs. newIteration returns a fresh
// iteration; nothing is shared between iterations except read-only inputs.
type workload struct {
	name         string
	newIteration func(ctx *iterCtx) iteration
	// ref is how the reference slices beside the workload run: its zero value
	// is one kernel on the calling goroutine.
	ref refMode
}

// iterCtx is what one iteration needs from the harness. rec and eng are nil
// on an untraced iteration, which then runs on the bare engines.
type iterCtx struct {
	root    string // repository root
	seed    uint64
	sz      size
	workers int // goroutines allowed to do simulation work: min(nproc, 4)
	rec     *spanRecorder
	eng     *engineCounters
}

// iteration is one pass over a workload, split at the boundaries the
// harness times: everything before the timed region, the timed region,
// reading results out while the simulation is still reachable, and
// releasing engine resources.
type iteration interface {
	setup() error
	timed() error
	harvest() (outcome, error)
	shutdown()
}

// phaseMs is the experiment-layer split of one traced iteration, host
// milliseconds.
type phaseMs struct{ compile, execute, harvest, shutdown float64 }

// outcome is what an iteration reports after its timed region.
type outcome struct {
	ops    uint64 // simulated operations completed inside the timed region
	digest string // SHA-256 fingerprint, Result.Digest's definition
	// attempted/failed count what failed_frac is made of: campaign points
	// for the campaign, the iteration itself everywhere else.
	attempted, failed int
	errs              []string      // what failed, for the report
	stats             core.RunStats // counters of the timed region
	respMean          float64       // mean response time over every sample, seconds
	rmseCPUApp        float64       // validation_day only, percent
	respRMSE          float64       // validation_day only, percent
	// phases overrides the harness' span-derived split where the workload
	// can only see its phases through the engine decorator.
	phases func(timedStart, timedEnd time.Time, def phaseMs) phaseMs
	// result feeds the experiment.digest_us probe.
	result *experiment.Result
}

func workloads() []workload {
	return []workload{
		{name: "peak_hour", newIteration: func(c *iterCtx) iteration { return &peakHour{ctx: c, span: c.sz.peakTimed} }},
		{name: "peak_hour_sharded", ref: refLockstep, newIteration: func(c *iterCtx) iteration {
			return &peakHour{ctx: c, span: c.sz.shardedTimed, sharded: true}
		}},
		{name: "validation_day", newIteration: func(c *iterCtx) iteration { return &validationDay{ctx: c} }},
		{name: "day_night", newIteration: func(c *iterCtx) iteration { return &dayNight{ctx: c} }},
		{name: "campaign", ref: refPool, newIteration: func(c *iterCtx) iteration { return &campaign{ctx: c} }},
	}
}

// shardedReference is peak_hour_sharded's inputs on the sequential engine:
// what its fingerprints are pinned from and, for a seed golden.json does not
// pin, checked against.
func shardedReference() workload {
	return workload{name: "peak_hour_sharded", newIteration: func(c *iterCtx) iteration {
		return &peakHour{ctx: c, span: c.sz.shardedTimed}
	}}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sequentialEngine returns the engine a single-goroutine workload hands to
// the scenario: nil (the scenario's own default) untraced, the timing
// decorator around the reference engine when traced.
func sequentialEngine(ctx *iterCtx) core.Engine {
	if ctx.eng == nil {
		return nil
	}
	return &timedEngine{inner: &core.SequentialEngine{}, c: ctx.eng}
}

// respSum totals every recorded response time and counts the samples.
func respSum(r *metrics.Responses) (total float64, n int) {
	for _, k := range r.Keys() {
		s := r.Series(k.Op, k.DC)
		total += sum(s.V)
		n += s.Len()
	}
	return total, n
}

// respMean averages every recorded response time.
func respMean(r *metrics.Responses) float64 {
	total, n := respSum(r)
	return ratio(total, float64(n))
}

// statsDelta subtracts the counters accumulated before the timed region.
func statsDelta(after, before core.RunStats) core.RunStats {
	d := after
	d.Seconds -= before.Seconds
	d.Ticks -= before.Ticks
	d.CompletedOps -= before.CompletedOps
	d.Jumps -= before.Jumps
	d.SkippedTicks -= before.SkippedTicks
	d.Barriers -= before.Barriers
	d.WindowsStretched -= before.WindowsStretched
	d.MailboxApplied -= before.MailboxApplied
	return d
}

// errRebuild is returned by a set-up whose inputs came out in a form the
// output check cannot pin; the harness discards the attempt, untimed, and
// sets up again.
var errRebuild = errors.New("platform built in a non-canonical order")

// canonicalClients reports whether the client pools were registered in
// sorted data-center order. topology.Build walks the spec's Clients map in
// Go's randomized iteration order, so agent IDs — and with them the drain
// order of same-tick completions, and the results — differ from build to
// build of the same seed. Until Build sorts, the benchmark keeps only the
// builds that came out in the order a sorted walk would produce, which is
// the order golden.json pins.
func canonicalClients(cs *scenarios.CaseStudy) bool {
	last := core.AgentID(-1)
	for _, name := range cs.Inf.DCNames() { // sorted
		pool := cs.Inf.DC(name).Clients
		if pool == nil {
			continue
		}
		if pool.Local.ID() < last {
			return false
		}
		last = pool.Local.ID()
	}
	return true
}

// peakHour is the dense multi-DC regime: the consolidated platform at
// 13-14 GMT, warmed up untimed, then Sim.RunFor(span) timed. With sharded
// set the identical platform, seed and warm-up run on the sharded PDES engine.
type peakHour struct {
	ctx     *iterCtx
	span    float64 // simulated seconds of the timed region
	sharded bool

	cs      *scenarios.CaseStudy
	ts      *timedSharded
	before  core.RunStats
	compile time.Duration
}

func (p *peakHour) setup() error {
	ctx := p.ctx
	var eng core.Engine
	switch {
	case p.sharded && ctx.eng != nil:
		p.ts = newTimedSharded(dispatch.NewSharded(ctx.workers), ctx.eng)
		eng = p.ts
	case p.sharded:
		eng = dispatch.NewSharded(ctx.workers)
	default:
		eng = sequentialEngine(ctx)
	}
	ctx.rec.begin("experiment.compile")
	t0 := time.Now()
	cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
		Step: 0.01, Scale: 1, Seed: ctx.seed, Engine: eng,
		StartHour: 13, EndHour: 14,
	})
	p.compile = time.Since(t0)
	ctx.rec.end()
	if err != nil {
		if eng != nil {
			eng.Shutdown()
		}
		return err
	}
	if !canonicalClients(cs) {
		cs.Sim.Shutdown()
		return errRebuild
	}
	p.cs = cs
	ctx.rec.begin("warmup")
	cs.Sim.RunFor(ctx.sz.peakWarm)
	ctx.rec.end()
	p.before = cs.Sim.Stats()
	return nil
}

func (p *peakHour) timed() error {
	p.cs.Sim.RunFor(p.span)
	return nil
}

func (p *peakHour) harvest() (outcome, error) {
	if p.ts != nil {
		p.ts.flush()
	}
	sim := p.cs.Sim
	// The uniform harvest, assembled from the simulation the way
	// experiment.Run does it, so the fingerprint is Result.Digest itself.
	res := &experiment.Result{
		Name:      p.cs.Name,
		Seed:      p.ctx.seed,
		Stats:     sim.Stats(),
		Series:    map[string]*metrics.Series{},
		Responses: sim.Responses,
	}
	for _, key := range sim.Collector.Keys() {
		res.Series[key] = sim.Collector.Series(key)
	}
	d := statsDelta(res.Stats, p.before)
	compile := p.compile
	return outcome{
		ops: d.CompletedOps, digest: res.Digest(), attempted: 1,
		stats: d, respMean: respMean(sim.Responses), result: res,
		phases: func(_, _ time.Time, def phaseMs) phaseMs {
			def.compile = float64(compile) / 1e6
			return def
		},
	}, nil
}

func (p *peakHour) shutdown() {
	if p.cs != nil {
		p.cs.Sim.Shutdown()
	}
}

// wholeCallPhases splits a whole-call workload's timed region at the marks
// the engine decorator saw: everything before the first tick is assembly
// and compile, first tick to Engine.Shutdown is the run plus the uniform
// harvest, and what follows Shutdown is the scenario's own statistics.
func wholeCallPhases(c *engineCounters) func(time.Time, time.Time, phaseMs) phaseMs {
	return func(start, end time.Time, def phaseMs) phaseMs {
		bind, down := c.firstBindNs.Load(), c.shutdownAtNs.Load()
		if bind < 0 || down < 0 {
			return def
		}
		s, e := int64(start.Sub(c.epoch)), int64(end.Sub(c.epoch))
		sd := c.shutdownNs.Load()
		return phaseMs{
			compile:  float64(bind-s) / 1e6,
			execute:  float64(down-bind) / 1e6,
			shutdown: float64(sd) / 1e6,
			harvest:  float64(e-down-sd)/1e6 + def.harvest,
		}
	}
}

// validationDay is the Chapter 5 validation experiment 2 as one call:
// assembly, calibration, 38 simulated minutes of series launches run to
// drain, and the Table 5.1-5.3 statistics.
type validationDay struct {
	ctx *iterCtx
	res *scenarios.ValidationResult
}

func (v *validationDay) config() scenarios.ValidationConfig {
	return scenarios.ValidationConfig{
		Experiment: 1, Seed: v.ctx.seed,
		LaunchFor: v.ctx.sz.validationLaunch, RunFor: v.ctx.sz.validationRun,
	}
}

// setup runs the same entry point with the simulated span cut to one
// snapshot window (the shortest run whose statistics are defined), so the
// cost of assembly, compile and calibration is visible as set-up time even
// though the timed region pays it again.
func (v *validationDay) setup() error {
	cfg := v.config()
	cfg.LaunchFor, cfg.RunFor, cfg.SteadyStart, cfg.SteadyEnd = 1, 31, 1, 31
	v.ctx.rec.begin("experiment.compile")
	_, err := scenarios.RunValidation(cfg)
	v.ctx.rec.end()
	return err
}

func (v *validationDay) timed() error {
	cfg := v.config()
	cfg.Engine = sequentialEngine(v.ctx)
	res, err := scenarios.RunValidation(cfg)
	v.res = res
	return err
}

func (v *validationDay) harvest() (outcome, error) {
	res := v.res
	o := outcome{
		ops: res.CompletedOps, digest: res.Result.Digest(), attempted: 1,
		stats: res.Result.Stats, respMean: respMean(res.Responses),
		rmseCPUApp: res.RMSECPU["app"], respRMSE: res.RespRMSEPct,
		result: res.Result,
	}
	if v.ctx.eng != nil {
		o.phases = wholeCallPhases(v.ctx.eng)
	}
	// The only workload with an external reference: hold the model error
	// inside the bands internal/scenarios/validation_test.go asserts. The
	// bands describe the full-length run only.
	if v.ctx.sz.validationRun == 0 {
		for tier, rmse := range res.RMSECPU {
			if rmse > 16 {
				return o, fmt.Errorf("RMSE cpu:%s = %.1f%% outside the 16%% band", tier, rmse)
			}
		}
		if res.RMSEClients > 25 {
			return o, fmt.Errorf("RMSE clients = %.1f%% outside the 25%% band", res.RMSEClients)
		}
		if res.RespRMSEPct > 28 {
			return o, fmt.Errorf("response RMSE = %.1f%% outside the 28%% band", res.RespRMSEPct)
		}
	}
	return o, nil
}

func (v *validationDay) shutdown() {}

// dayNight is the sparse regime: 24 hours of one thinned Poisson client
// workload, almost all of it skipped by fast-forward jumps.
type dayNight struct {
	ctx *iterCtx
	res *scenarios.DayNightResult
}

func (d *dayNight) setup() error {
	d.ctx.rec.begin("experiment.compile")
	_, err := scenarios.RunDayNight(scenarios.DayNightConfig{Seed: d.ctx.seed, Hours: 1.0 / 3600})
	d.ctx.rec.end()
	return err
}

func (d *dayNight) timed() error {
	res, err := scenarios.RunDayNight(scenarios.DayNightConfig{
		Seed: d.ctx.seed, Hours: d.ctx.sz.dayNightHours, Engine: sequentialEngine(d.ctx),
	})
	d.res = res
	return err
}

func (d *dayNight) harvest() (outcome, error) {
	res := d.res
	o := outcome{
		ops: res.CompletedOps, digest: res.Result.Digest(), attempted: 1,
		stats: res.Result.Stats, respMean: respMean(res.Responses),
		result: res.Result,
	}
	if d.ctx.eng != nil {
		o.phases = wholeCallPhases(d.ctx.eng)
	}
	return o, nil
}

func (d *dayNight) shutdown() {}

// campaignAxes is the 16-point grid over the chaos document: fault
// severity, WAN bandwidth, a tier's core count and the fluid tier on/off.
func campaignAxes(s *experiment.Sweep) *experiment.Sweep {
	return s.
		Vary("faults.atlantic.magnitude", 0.5, 1).
		Vary("wan.NA-EU.mbps", 45, 155).
		Vary("dcs.NA.app.cores", 4, 8).
		Vary("workloads.PDM.EU.fluid", 0, 1)
}

// campaign is the set-up dominated workload: every point decodes and
// compiles the chaos document, builds its topology, attaches faults and the
// fluid tier, and simulates 15 minutes.
type campaign struct {
	ctx *iterCtx
	sr  *experiment.SweepResult

	// Per-point phase sums of a traced iteration. Points overlap on the
	// worker pool, so these are busy time, not wall time.
	compileNs, executeNs atomic.Int64
}

// load is the sweep's per-point factory: the document is loaded and
// compiled into an experiment once per point (and once per dry-applied
// axis value during validation), exactly as experiment.LoadDocument does,
// with the benchmark seed in place of the document's. A positive seconds
// overrides the document's run window.
func (c *campaign) load(seconds float64) (*experiment.Experiment, error) {
	d, err := config.Load(filepath.Join(c.ctx.root, chaosDocument))
	if err != nil {
		return nil, err
	}
	d.Seed = c.ctx.seed
	if seconds > 0 {
		d.Window = &config.WindowSpec{RunSeconds: seconds}
	}
	return experiment.FromDocument(d)
}

// base is load at the workload's size, plus the decorators of a traced
// iteration.
func (c *campaign) base() (*experiment.Experiment, error) {
	t0 := time.Now()
	e, err := c.load(c.ctx.sz.campaignSeconds)
	if err != nil || c.ctx.eng == nil {
		return e, err
	}
	// Traced: an Option is a plain function of the experiment, so the engine
	// decorator and a compile-end mark can be applied to the assembled
	// value. Setup hooks run last in Compile; Shutdown follows the harvest.
	// Each point counts into counters of its own, folded into the run's at
	// Shutdown, so concurrent points do not contend for one cache line on
	// every sweep.
	pe := &pointEngine{
		timedEngine: timedEngine{inner: &core.SequentialEngine{}, c: newEngineCounters()},
		camp:        c,
	}
	if err := experiment.WithEngine(func() core.Engine { return pe })(e); err != nil {
		return nil, err
	}
	if err := experiment.WithSetup(func(*experiment.Run) error {
		pe.compiled = time.Now()
		c.compileNs.Add(int64(pe.compiled.Sub(t0)))
		return nil
	})(e); err != nil {
		return nil, err
	}
	return e, nil
}

// pointEngine is the per-point decorator of a traced campaign.
type pointEngine struct {
	timedEngine
	camp     *campaign
	compiled time.Time // end of this point's Compile
}

func (e *pointEngine) Shutdown() {
	e.camp.executeNs.Add(int64(time.Since(e.compiled)))
	e.timedEngine.Shutdown()
	e.camp.ctx.eng.fold(e.c)
}

// setup runs the same entry point over a one-point grid with the run window
// cut to one simulated second: validation, document decode, compile and
// topology build with next to nothing simulated, so work moved into compile
// time shows as set-up time.
func (c *campaign) setup() error {
	c.ctx.rec.begin("experiment.compile")
	defer c.ctx.rec.end()
	cut := func() (*experiment.Experiment, error) { return c.load(1) }
	_, err := experiment.NewSweep("campaign-setup", cut).Vary("faults.atlantic.magnitude", 1).Run(1)
	return err
}

func (c *campaign) timed() error {
	sr, err := campaignAxes(experiment.NewSweep("campaign", c.base)).Run(c.ctx.workers)
	if sr == nil {
		return err // the grid itself was rejected
	}
	c.sr = sr // failed points are counted one by one in harvest
	return nil
}

func (c *campaign) harvest() (outcome, error) {
	o := outcome{attempted: len(c.sr.Points)}
	h := sha256.New()
	var total float64
	var n int
	for i := range c.sr.Points {
		p := &c.sr.Points[i]
		if p.Err != nil {
			o.failed++
			o.errs = append(o.errs, fmt.Sprintf("point %d: %v", i, p.Err))
			continue
		}
		h.Write([]byte(p.Res.Digest()))
		o.ops += p.Res.Stats.CompletedOps
		o.stats.Ticks += p.Res.Stats.Ticks
		o.stats.Jumps += p.Res.Stats.Jumps
		o.stats.SkippedTicks += p.Res.Stats.SkippedTicks
		o.stats.CompletedOps += p.Res.Stats.CompletedOps
		t, k := respSum(p.Res.Responses)
		total, n = total+t, n+k
		o.result = p.Res
	}
	o.respMean = ratio(total, float64(n))
	// The hash of the point digests in grid order: equal at one and at N
	// workers exactly when every point's digest is.
	o.digest = hex.EncodeToString(h.Sum(nil))
	if c.ctx.eng != nil {
		compile, execute := c.compileNs.Load(), c.executeNs.Load()
		shutdown := c.ctx.eng.shutdownNs.Load()
		o.phases = func(_, _ time.Time, def phaseMs) phaseMs {
			return phaseMs{
				compile: float64(compile) / 1e6, execute: float64(execute) / 1e6,
				harvest: def.harvest, shutdown: float64(shutdown) / 1e6,
			}
		}
	}
	return o, nil
}

func (c *campaign) shutdown() {}
