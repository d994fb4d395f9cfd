package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// runConfig is one benchmark run: one workload, one seed, one budget.
type runConfig struct {
	root string
	seed uint64 // the run's seed
	// hist resolves the scenario seed of each history; runWorkload gives
	// every run of a workload its own.
	hist *histories
	// budget is the wall time of the measurement loop, set-up included. An
	// untraced run overruns it, by half at most, if it must to simulate every
	// one of sz.histories at least once.
	budget time.Duration
	sz     size
	trace  bool
	golden goldenFile
	// ref times the reference slices between iterations; runWorkload gives
	// every run its own.
	ref *refClock
}

// variant is how one iteration of the loop runs.
type variant int

const (
	untraced variant = iota
	traced
	// serial is the campaign at one worker, run only in traced mode, for
	// experiment.sweep_speedup and the equal-digests-at-1-and-N check.
	serial
)

// sample is everything measured on one iteration.
type sample struct {
	variant  variant
	history  int
	wallMs   float64 // timed region
	setupS   float64 // iteration start to timed-region start
	refMs    float64 // mean of the reference slices before and after the iteration, ms
	bytes    uint64  // TotalAlloc delta over the timed region
	allocs   uint64  // Mallocs delta over the timed region
	liveMB   float64 // heap the iteration holds after a forced GC, simulation reachable
	gcCPU    float64 // GC cpu-seconds inside the timed region
	busyCPU  float64 // non-idle cpu-seconds inside the timed region
	gcCycles uint32
	out      outcome
	phases   phaseMs
	eng      engineSnapshot // decorator counters of the timed region
}

// engineSnapshot is a plain copy of the additive decorator counters.
type engineSnapshot struct {
	sweepNs, sweeps, agentsStepped int64
	runShardsNs, runShardsCalls    int64
	shardBusyNs                    int64
}

func (c *engineCounters) snapshot() engineSnapshot {
	return engineSnapshot{
		sweepNs: c.sweepNs.Load(), sweeps: c.sweeps.Load(), agentsStepped: c.agentsStepped.Load(),
		runShardsNs: c.runShardsNs.Load(), runShardsCalls: c.runShardsCalls.Load(),
		shardBusyNs: c.shardBusyNs.Load(),
	}
}

func (a engineSnapshot) minus(b engineSnapshot) engineSnapshot {
	return engineSnapshot{
		sweepNs: a.sweepNs - b.sweepNs, sweeps: a.sweeps - b.sweeps, agentsStepped: a.agentsStepped - b.agentsStepped,
		runShardsNs: a.runShardsNs - b.runShardsNs, runShardsCalls: a.runShardsCalls - b.runShardsCalls,
		shardBusyNs: a.shardBusyNs - b.shardBusyNs,
	}
}

// cpuSample reads the runtime's CPU accounting, which it refreshes at the
// end of every GC cycle — and every timed region is bracketed by forced
// collections.
var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readCPU() (gc, busy float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64()
}

// workers is the number of goroutines a workload may use for simulation
// work: never more than the cores, capped at four.
func workers() int { return min(runtime.NumCPU(), 4) }

// errPanicked marks an iteration the simulator panicked on. At the commit
// that added the benchmark about one consolidation history in 700 ends in
// "hardware: memory over-released to -1.3e-06": Memory.Release holds a float
// that counts gigabytes in bytes to an absolute tolerance of 1e-6. The panic
// repeats for a scenario seed, so such a history is an input the simulator
// cannot run, not a result; the run replaces it with the next candidate.
var errPanicked = errors.New("simulator panicked")

// guarded calls f and reports a panic on this goroutine as errPanicked. A
// panic on one of the sharded engine's worker goroutines cannot be caught
// from here and still ends the process.
func guarded(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	return f()
}

// runIteration runs one iteration of one history, giving up candidates for
// the history's scenario seed on which the simulator panics.
func runIteration(w workload, cfg runConfig, v variant, history int, rec *spanRecorder) (sample, error) {
	for {
		mark := rec.mark()
		s, err := attemptIteration(w, cfg, v, history, rec)
		if !errors.Is(err, errPanicked) || cfg.hist.skipped[history] == 8 {
			return s, err
		}
		rec.rollback(mark)
		fmt.Fprintf(os.Stderr, "bench: %s seed %d history %d: %v; taking the next candidate\n", w.name, cfg.seed, history, err)
		cfg.hist.skipped[history]++
	}
}

// attemptIteration drives one iteration through its four phases and
// measures the timed one. rec is nil for untraced variants.
func attemptIteration(w workload, cfg runConfig, v variant, history int, rec *spanRecorder) (sample, error) {
	ctx := &iterCtx{root: cfg.root, seed: cfg.hist.seedOf(history), sz: cfg.sz, workers: workers()}
	if v == traced {
		ctx.rec, ctx.eng = rec, newEngineCounters()
	}
	if v == serial {
		ctx.workers = 1
	}
	s := sample{variant: v, history: history}
	it := w.newIteration(ctx)

	ctx.rec.begin("iteration")
	defer func() {
		ctx.rec.end()
		ctx.rec.nextIteration()
	}()
	// What the heap holds before the iteration exists — the harness' own
	// samples and spans — is not the workload's.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	baseline := m0.HeapAlloc

	var err error
	for attempt := 0; ; attempt++ {
		mark := ctx.rec.mark()
		t0 := time.Now()
		ctx.rec.begin("setup")
		err = guarded(it.setup)
		ctx.rec.end()
		s.setupS = time.Since(t0).Seconds()
		if !errors.Is(err, errRebuild) || attempt == 200 {
			break
		}
		ctx.rec.rollback(mark) // a discarded attempt leaves no spans either
	}
	if err != nil {
		it.shutdown()
		return s, fmt.Errorf("set-up: %w", err)
	}

	var e0 engineSnapshot
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc0, busy0 := readCPU()
	if ctx.eng != nil {
		e0 = ctx.eng.snapshot()
	}
	ctx.rec.begin("execute")
	start := time.Now()
	err = guarded(it.timed)
	end := time.Now()
	ctx.rec.end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		it.shutdown()
		return s, fmt.Errorf("timed region: %w", err)
	}
	s.wallMs = float64(end.Sub(start)) / 1e6
	s.bytes, s.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	s.gcCycles = m1.NumGC - m0.NumGC

	// Retained state: what survives a collection while the finished
	// simulation is still held by the iteration.
	runtime.GC()
	gc1, busy1 := readCPU()
	s.gcCPU, s.busyCPU = gc1-gc0, busy1-busy0
	runtime.ReadMemStats(&m1)
	s.liveMB = (float64(m1.HeapAlloc) - float64(baseline)) / (1 << 20)

	ctx.rec.begin("harvest")
	h0 := time.Now()
	s.out, err = it.harvest()
	harvest := time.Since(h0)
	ctx.rec.end()
	if ctx.eng != nil {
		s.eng = ctx.eng.snapshot().minus(e0)
	}
	ctx.rec.begin("shutdown")
	d0 := time.Now()
	it.shutdown()
	s.phases = phaseMs{execute: s.wallMs, harvest: float64(harvest) / 1e6, shutdown: float64(time.Since(d0)) / 1e6}
	ctx.rec.end()
	if s.out.phases != nil {
		s.phases = s.out.phases(start, end, s.phases)
		s.out.phases = nil // the sample outlives the iteration; the closure need not
	}
	if err != nil {
		return s, fmt.Errorf("harvest: %w", err)
	}
	return s, nil
}

// runResult is what one run of one workload produced.
type runResult struct {
	workload  workload
	cfg       runConfig
	samples   []sample
	rec       *spanRecorder
	attempted int
	failed    int
	failures  []string
	probes    map[string]float64
	last      *experiment.Result // most recent iteration's harvest, for experiment.digest_us
}

// runWorkload repeats the workload's iteration back to back, one
// simulation at a time, until the budget is spent, checking every
// iteration's output, with slices of the reference kernel between
// iterations. In traced mode it alternates untraced and traced iterations on
// 70% of the budget and spends the rest on layer probes.
func runWorkload(w workload, cfg runConfig) *runResult {
	cfg.hist = newHistories(cfg.seed, cfg.sz.histories)
	cfg.ref = newRefClock(w.ref, workers(), cfg.sz.refScale)
	defer cfg.ref.stop()
	res := &runResult{workload: w, cfg: cfg}
	chk := newChecker(w, cfg)
	loop := cfg.budget
	pattern := []variant{untraced}
	if cfg.trace {
		res.rec = newSpanRecorder()
		loop = cfg.budget * 7 / 10
		pattern = []variant{untraced, traced}
		if w.name == "campaign" {
			pattern = append(pattern, serial)
		}
	}
	if err := chk.prepare(); err != nil {
		res.fail(1, "reference run: "+err.Error())
		return res
	}

	// An untraced run visits every history: its end-to-end metrics weigh
	// them equally. A traced run needs one iteration of each variant. On a
	// host so slow that the histories take half as long again as the budget
	// the run stops short of them: the driver allows all its runs together
	// little more than their budgets.
	floor := cfg.sz.histories
	if cfg.trace {
		floor = len(pattern)
	}
	// A reference slice follows an iteration once refEvery of iterations has
	// passed since the last one: between every two iterations of most
	// workloads, every fourth of the campaign's. The iterations between two
	// slices are all measured against the mean of the two.
	before, sliced, unmarked := cfg.ref.slice(), time.Now(), 0
	mark := func() {
		after := cfg.ref.slice()
		for i := len(res.samples) - unmarked; i < len(res.samples); i++ {
			res.samples[i].refMs = (before + after) / 2
		}
		before, sliced, unmarked = after, time.Now(), 0
	}
	start := time.Now()
	for i := 0; time.Since(start) < loop || i < floor && (cfg.budget == 0 || time.Since(start) < loop*3/2); i++ {
		// Every variant walks the same histories in the same order.
		v, history := pattern[i%len(pattern)], i/len(pattern)%cfg.sz.histories
		s, err := runIteration(w, cfg, v, history, res.rec)
		attempted, failed := max(s.out.attempted, 1), s.out.failed
		switch {
		case err != nil:
			res.failures = append(res.failures, err.Error())
			failed = attempted
		case failed > 0:
			res.failures = append(res.failures, fmt.Sprintf("%d of %d points failed: %v", failed, attempted, s.out.errs))
		default:
			if err := chk.check(history, s.out); err != nil {
				res.failures = append(res.failures, err.Error())
				failed = attempted
			}
		}
		res.attempted += attempted
		res.failed += failed
		if failed == 0 {
			// Keep the numbers, not the simulation: a retained result would
			// grow the live heap with every iteration and be measured as the
			// workload's own.
			res.last, s.out.result = s.out.result, nil
			res.samples = append(res.samples, s)
			unmarked++
		}
		if time.Since(sliced) >= refEvery {
			mark()
		}
		if len(res.failures) >= 5 {
			break // a broken workload does not need the whole budget to say so
		}
	}
	mark()
	if cfg.trace && res.failed == 0 {
		var errs []error
		res.probes, errs = runProbes(w, cfg, res.last, cfg.budget-time.Since(start))
		for _, err := range errs {
			res.fail(1, "probe "+err.Error())
		}
	}
	return res
}

func (r *runResult) fail(n int, msg string) {
	r.attempted += n
	r.failed += n
	r.failures = append(r.failures, msg)
}

func (r *runResult) of(v variant) []sample {
	var out []sample
	for _, s := range r.samples {
		if s.variant == v {
			out = append(out, s)
		}
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// quantile is the linear-interpolation quantile of a sample (type 7).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// byHistory averages f over the samples of each history and returns one
// value per history visited. The budget seldom ends on a whole cycle, so some
// histories run once more than others; a metric built on these values weighs
// every history the same all the same, and does not follow the host's speed
// through the mix of inputs.
func byHistory(ss []sample, f func(sample) float64) []float64 {
	var total []float64
	var n []int
	for _, s := range ss {
		for s.history >= len(total) {
			total, n = append(total, 0), append(n, 0)
		}
		total[s.history] += f(s)
		n[s.history]++
	}
	out := make([]float64, 0, len(total))
	for h, t := range total {
		if n[h] > 0 {
			out = append(out, t/float64(n[h]))
		}
	}
	return out
}

// atReference converts a host time measured on iteration s into what it
// would have been at the reference box's quiet speed: the iteration's
// reference slices took refMs here and take nominalMs there. A region shorter
// than refShortest is left as the clock gave it: it is shorter than the host's
// scheduling quantum, so the median over its many samples already leaves out
// the few that were interrupted, and a slice, which is not, would over-correct.
func (r *runResult) atReference(s sample, hostTime time.Duration) float64 {
	if hostTime < refShortest {
		return hostTime.Seconds()
	}
	return hostTime.Seconds() * r.cfg.ref.mode.nominalMs / s.refMs
}

// endToEnd computes the user-visible metrics from the untraced samples. The
// three host times are at the reference box's speed (see refkernel.go), and
// each is a median over the histories, so that an iteration the host
// interrupted between two slices does not carry into the run's numbers.
func (r *runResult) endToEnd() map[string]metric {
	ss := r.of(untraced)
	wall := func(s sample) float64 { return r.atReference(s, time.Duration(s.wallMs*1e6)) }
	ops := sum(byHistory(ss, func(s sample) float64 { return float64(s.out.ops) }))
	return map[string]metric{
		"wall_ms_p50":   {median(byHistory(ss, wall)) * 1e3, "ms"},
		"ops_per_s":     {median(byHistory(ss, func(s sample) float64 { return ratio(float64(s.out.ops), wall(s)) })), "1/s"},
		"bytes_per_op":  {ratio(sum(byHistory(ss, func(s sample) float64 { return float64(s.bytes) })), ops), "B"},
		"allocs_per_op": {ratio(sum(byHistory(ss, func(s sample) float64 { return float64(s.allocs) })), ops), "count"},
		"live_heap_mb":  {median(byHistory(ss, func(s sample) float64 { return s.liveMB })), "MB"},
		"setup_s": {median(byHistory(ss, func(s sample) float64 {
			return r.atReference(s, time.Duration(s.setupS*float64(time.Second)))
		})), "s"},
	}
}

// tail returns the highest percentile of vs that still has at least ten
// samples beyond it, and that percentile (0 when the sample is too small).
func tail(vs []float64) (value, pct float64) {
	n := len(vs)
	if n <= 10 {
		return 0, 0
	}
	pct = math.Floor(100 * float64(n-10) / float64(n))
	return quantile(vs, pct/100), pct
}

// perLayer computes the traced run's metrics. Host times are as the clock
// gave them, not at the reference box's speed, and means over the traced
// iterations; counts the simulator makes are taken from the
// traced iteration of history 0 alone, so they repeat exactly for a seed
// however many iterations the host had time for. Host metrics and simulated
// results come from every sample, the layer probes from their own calls.
func (r *runResult) perLayer() map[string]metric {
	all, off, on := r.samples, r.of(untraced), r.of(traced)
	mean := func(f func(sample) float64) float64 { return ratio(sum(column(on, f)), float64(len(on))) }
	var first sample // traced, history 0
	for _, s := range on {
		if s.history == 0 {
			first = s
			break
		}
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	execute := mean(func(s sample) float64 { return s.phases.execute })
	put("experiment.compile_ms", mean(func(s sample) float64 { return s.phases.compile }), "ms")
	put("experiment.execute_ms", execute, "ms")
	put("experiment.harvest_ms", mean(func(s sample) float64 { return s.phases.harvest }), "ms")
	put("experiment.shutdown_ms", mean(func(s sample) float64 { return s.phases.shutdown }), "ms")

	// The parallel phases of a sharded window are its sweeps: both count as
	// time inside the engine, and the rest of the run is the loop around it.
	parallelMs := mean(func(s sample) float64 { return float64(s.eng.runShardsNs) / 1e6 })
	stepMs := parallelMs + mean(func(s sample) float64 { return float64(s.eng.sweepNs) / 1e6 })
	sweeps, stepped := float64(first.eng.sweeps), float64(first.eng.agentsStepped)
	ops, st := float64(first.out.ops), first.out.stats
	put("core.step_ms", stepMs, "ms")
	put("core.loop_ms", execute-stepMs, "ms")
	put("core.step_share", ratio(stepMs, execute), "frac")
	put("core.sweeps", sweeps, "count")
	put("core.agents_stepped", stepped, "count")
	put("core.active_mean", ratio(stepped, sweeps), "count")
	put("core.ticks", float64(st.Ticks), "count")
	put("core.jumps", float64(st.Jumps), "count")
	put("core.skipped_frac", ratio(float64(st.SkippedTicks), float64(st.Ticks)), "frac")
	put("core.completed_ops", ops, "count")
	put("core.us_per_op", ratio(execute*1e3, mean(func(s sample) float64 { return float64(s.out.ops) })), "us")
	put("core.sweeps_per_op", ratio(sweeps, ops), "count")

	calls := mean(func(s sample) float64 { return float64(s.eng.runShardsCalls) })
	busyMs := mean(func(s sample) float64 { return float64(s.eng.shardBusyNs) / 1e6 })
	shards, serialMs := 0.0, 0.0
	if r.workload.name == "peak_hour_sharded" {
		shards, serialMs = float64(workers()), execute-stepMs
	}
	put("dispatch.parallel_ms", parallelMs, "ms")
	put("dispatch.serial_ms", serialMs, "ms")
	put("dispatch.shard_busy_frac", ratio(busyMs, shards*parallelMs), "frac")
	put("dispatch.shard_wait_ms", ratio(shards*parallelMs-busyMs, shards), "ms")
	put("dispatch.runshards_calls", float64(first.eng.runShardsCalls), "count")
	put("dispatch.us_per_barrier", ratio(parallelMs*1e3, calls), "us")
	put("core.barriers", float64(st.Barriers), "count")
	put("core.windows_stretched", float64(st.WindowsStretched), "count")
	put("core.mailbox_applied", float64(st.MailboxApplied), "count")

	points, pointMs, speedup := 0.0, 0.0, 0.0
	if r.workload.name == "campaign" {
		points = ratio(float64(r.attempted), float64(len(all)))
		wallN := median(column(off, func(s sample) float64 { return s.wallMs }))
		pointMs = ratio(wallN, points)
		speedup = ratio(median(column(r.of(serial), func(s sample) float64 { return s.wallMs })), wallN)
	}
	put("experiment.sweep_points", points, "count")
	put("experiment.point_ms", pointMs, "ms")
	put("experiment.point_errors", float64(r.failed), "count")
	put("experiment.sweep_speedup", speedup, "x")

	wallOff := column(off, func(s sample) float64 { return s.wallMs })
	tailMs, tailPct := tail(wallOff)
	put("host.gc_cpu_frac", ratio(sum(column(off, func(s sample) float64 { return s.gcCPU })),
		sum(column(off, func(s sample) float64 { return s.busyCPU }))), "frac")
	put("host.gc_cycles", ratio(sum(column(off, func(s sample) float64 { return float64(s.gcCycles) })), float64(len(off))), "count")
	put("host.rss_peak_mb", rssPeakMB(), "MB")
	put("host.wall_ms_tail", tailMs, "ms")
	put("host.wall_tail_pct", tailPct, "%")
	put("host.wall_iqr_frac", ratio(quantile(wallOff, 0.75)-quantile(wallOff, 0.25), median(wallOff)), "frac")
	put("host.iterations", float64(len(all)), "count")
	// What the end-to-end times were divided by, and what they were before.
	refMs := median(column(all, func(s sample) float64 { return s.refMs }))
	put("host.ref_slice_ms", refMs, "ms")
	put("host.speed_frac", ratio(r.cfg.ref.mode.nominalMs, refMs), "frac")
	put("host.wall_ms_raw", median(wallOff), "ms")
	put("host.trace_overhead_frac",
		ratio(median(column(on, func(s sample) float64 { return s.wallMs })), median(wallOff))-1, "frac")

	put("sim.resp_mean_s", first.out.respMean, "s")
	put("sim.rmse_cpu_app_pct", first.out.rmseCPUApp, "%")
	put("sim.resp_rmse_pct", first.out.respRMSE, "%")

	for _, p := range probeNames {
		m[p.name] = metric{r.probes[p.name], p.unit}
	}
	return m
}

// rssPeakMB is the process's peak resident set.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
