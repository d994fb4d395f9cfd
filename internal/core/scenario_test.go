package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/scenarios"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The core loops on real platforms: topology-built hardware agents, client
// workloads, WAN links and the fault controller, run through the scenario
// constructors. The test names date from the sharded span runtime these
// platforms used to exercise (see gate_test.go for how its matrix maps onto
// what remains); each now pins the engine contract there: dispatch.Sharded
// on the production loop, where its workers sit idle, and on the reference
// loop, where its chunked Sweep steps every active agent every tick, must
// both reproduce the sequential production loop's digest bit for bit.

// watched counts the Bind and Sweep calls an engine receives.
type watched struct {
	core.Engine
	binds, sweeps int
}

func (w *watched) Bind(agents []core.Agent) {
	w.binds++
	w.Engine.Bind(agents)
}

func (w *watched) Sweep(active []core.Agent, fn func(core.Agent)) {
	w.sweeps++
	w.Engine.Sweep(active, fn)
}

// sharded is dispatch.NewSharded(n), watched.
func sharded(n int) *watched { return &watched{Engine: dispatch.NewSharded(n)} }

// checkIdle fails unless the production loop left the engine alone.
func checkIdle(t *testing.T, w *watched) {
	t.Helper()
	if w.binds != 0 || w.sweeps != 0 {
		t.Errorf("production loop called Bind %d and Sweep %d times, want 0", w.binds, w.sweeps)
	}
}

// harvest digests a run driven by hand, as Execute would have.
func harvest(sim *core.Simulation) string {
	res := &experiment.Result{Stats: sim.Stats(), Responses: sim.Responses, Series: map[string]*metrics.Series{}}
	for _, k := range sim.Collector.Keys() {
		res.Series[k] = sim.Collector.Series(k)
	}
	return res.Digest()
}

// TestStretchBarrierDrop is the headline guarantee of the window loop on
// the fine-step day-night scenario: the loop must cut the iterations of the
// per-tick sweep — one per tick — by at least 5x over the night floor while
// reproducing the sequential digest bit for bit with a sharded engine
// attached, and leave the deprecated span counters at 0.
func TestStretchBarrierDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario-level loop leg skipped in -short")
	}
	run := func(eng core.Engine) *scenarios.DayNightResult {
		t.Helper()
		res, err := scenarios.RunDayNight(scenarios.DayNightConfig{Seed: 42, Hours: 1, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	eng := sharded(1)
	on, seq := run(eng).Result, run(nil).Result
	checkIdle(t, eng)
	st := on.Stats
	if st.Barriers != 0 || st.WindowsStretched != 0 || st.MailboxApplied != 0 {
		t.Errorf("%d barriers, %d stretched windows, %d mailbox entries; want none", st.Barriers, st.WindowsStretched, st.MailboxApplied)
	}
	iterations := uint64(st.Ticks) - st.SkippedTicks
	if ratio := float64(st.Ticks) / float64(iterations); ratio < 5 {
		t.Errorf("%d loop iterations for %d ticks: only %.1fx fewer than the per-tick sweep, want >= 5x", iterations, st.Ticks, ratio)
	}
	if a, b := on.Digest(), seq.Digest(); a != b {
		t.Errorf("digest diverged from the sequential loop:\n%s\n%s", b, a)
	}
	t.Logf("%d loop iterations for %d ticks, %d operations completed", iterations, st.Ticks, st.CompletedOps)
}

// onceSource launches one operation at its first poll and parks.
type onceSource struct {
	op       core.OpRun
	launched bool
}

func (o *onceSource) Poll(s *core.Simulation, now float64) {
	if !o.launched {
		o.launched = true
		s.StartOp(o.op)
	}
}

func (o *onceSource) NextPoll(float64) float64 { return math.Inf(1) }

// TestWindowLandsOnCalendarHead pins where a window lands when only the
// calendar bounds it: on the calendar head itself, not one tick before. A
// delay line holding one operation, a parked source and no collector
// boundary within the run leave exactly two windows — one landing on the
// completion tick, one on the run end — whatever the delay, with the
// line's key on the calendar's wheel or, past 2.56 s, in its heap tier, and
// the completion lands where the reference loop records it. The second leg
// pins the window count (ticks − skipped) of a one-hour day-night run, so a
// change to where windows land shows up as a number.
func TestWindowLandsOnCalendarHead(t *testing.T) {
	for _, delay := range []float64{0.02, 0.5, 2.55, 2.57, 7.301} {
		run := func(ref bool) *core.Simulation {
			s := core.NewSimulation(core.Config{Step: 0.01, CollectEvery: 1 << 30, Seed: 1,
				LoopFlags: core.LoopFlags{NoFastForward: ref}})
			line := core.NewDelayLine(s, "line")
			s.AddSource(&onceSource{op: core.OpRun{Name: "D", DC: "NA", NumSteps: 1,
				Expander: core.ExpandFunc(func(int) []core.MessagePlan {
					return []core.MessagePlan{{Stages: []core.Stage{{Queue: line, Demand: delay}}}}
				})}})
			s.RunFor(10)
			return s
		}
		got, ref := run(false), run(true)
		st := got.Stats()
		if windows := uint64(st.Ticks) - st.SkippedTicks; windows != 2 || st.Jumps != 2 {
			t.Errorf("delay %v s: %d windows in %d jumps over %d ticks, want 2 in 2: one on the completion, one on the run end",
				delay, windows, st.Jumps, st.Ticks)
		}
		g, r := got.Responses.Series("D", "NA"), ref.Responses.Series("D", "NA")
		if g.Len() != 1 || r.Len() != 1 || g.T[0] != r.T[0] || g.V[0] != r.V[0] {
			t.Errorf("delay %v s: completion %v/%v on the production loop, %v/%v on the reference loop", delay, g.T, g.V, r.T, r.V)
		}
	}

	res, err := scenarios.RunDayNight(scenarios.DayNightConfig{Seed: 7, Hours: 1})
	if err != nil {
		t.Fatal(err)
	}
	const want = 1326
	st := res.Result.Stats
	if windows := uint64(st.Ticks) - st.SkippedTicks; windows != want {
		t.Errorf("one-hour day-night run: %d windows over %d ticks (%d jumps), want %d", windows, st.Ticks, st.Jumps, want)
	}
}

// TestMailboxDueTimeSafety is the WAN due-time property on the consolidation
// platform at night: every cross-DC hand-off carries a WAN-delayed due time
// and must land on exactly the tick the per-tick reference loop lands it on,
// whatever engine the run carries and however its RunFor is issued. The
// main leg proves the property was exercised — WAN links carried traffic —
// and the subtests vary the worker count (digest-sharded-N), the production
// loop in RunFor slices (sharded-4-nocross) and the reference loop sweeping
// through the sharded engine (sharded-4-nostretch).
func TestMailboxDueTimeSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN due-time property skipped in -short")
	}
	build := func(eng core.Engine, flags core.LoopFlags) *scenarios.CaseStudy {
		t.Helper()
		cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4,
			Engine: eng, LoopFlags: flags,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	run := func(eng core.Engine, flags core.LoopFlags) *scenarios.CaseStudy {
		cs := build(eng, flags)
		cs.Run()
		return cs
	}
	ref := run(nil, core.LoopFlags{}).Result.Digest()

	eng := sharded(4)
	cs := run(eng, core.LoopFlags{})
	checkIdle(t, eng)
	if got := cs.Result.Digest(); got != ref {
		t.Errorf("digest diverged from the sequential loop:\n%s\n%s", ref, got)
	}
	wan := 0
	for _, k := range cs.Sim.Collector.Keys() {
		if !strings.HasPrefix(k, "link:") {
			continue
		}
		for _, v := range cs.Sim.Collector.Series(k).V {
			if v > 0 {
				wan++
				break
			}
		}
	}
	if wan == 0 {
		t.Fatal("no WAN link carried traffic; the property was never exercised")
	}

	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("digest-sharded-%d", n), func(t *testing.T) {
			eng := sharded(n)
			if got := run(eng, core.LoopFlags{}).Result.Digest(); got != ref {
				t.Errorf("digest diverged from the sequential loop:\n%s\n%s", ref, got)
			}
			checkIdle(t, eng)
		})
	}
	t.Run("sharded-4-nocross", func(t *testing.T) {
		whole := build(nil, core.LoopFlags{})
		whole.Sim.RunFor(3600)
		eng := sharded(4)
		sliced := build(eng, core.LoopFlags{})
		for i := 0; i < 3600/45; i++ {
			sliced.Sim.RunFor(45)
		}
		whole.Sim.Shutdown()
		sliced.Sim.Shutdown()
		if a, b := harvest(whole.Sim), harvest(sliced.Sim); a != b {
			t.Errorf("the run in 45 s slices diverged from the run in one call:\n%s\n%s", a, b)
		}
		checkIdle(t, eng)
	})
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		eng := sharded(4)
		if got := run(eng, core.LoopFlags{NoFastForward: true}).Result.Digest(); got != ref {
			t.Errorf("reference loop under the sharded engine diverged from the production loop:\n%s\n%s", ref, got)
		}
		if eng.sweeps == 0 {
			t.Error("the reference loop never swept through the engine")
		}
	})
}

// TestChaosStretchBarriers pins the fault-schedule contract on both loops:
// the fault controller is a source, so its next transition tick bounds
// every window and the injection and recovery land at their configured
// instants — on the production loop with a sharded engine attached, and on
// the reference loop sweeping through it — and the faulted runs stay
// bit-identical to the sequential production loop. The chaos workload's
// cascades run cross-DC (EU clients against the NA master), across a link
// whose latency the partition changes.
func TestChaosStretchBarriers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos loop leg skipped in -short")
	}
	run := func(extra ...experiment.Option) *experiment.Result {
		t.Helper()
		e, err := scenarios.ChaosExperiment(extra...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		ir := res.Faults.Injections[0]
		if ir.InjectedAt != 120 || ir.RecoveredAt != 240 {
			t.Fatalf("fault transitions at %v/%v, want exactly 120/240 — a window crossed a fault tick",
				ir.InjectedAt, ir.RecoveredAt)
		}
		return res
	}
	engines := []*watched{sharded(3), sharded(3)}
	withEngine := func(i int) experiment.Option {
		return experiment.WithEngine(func() core.Engine { return engines[i] })
	}
	seq, on := run(), run(withEngine(0))
	checkIdle(t, engines[0])
	if a, b := on.Digest(), seq.Digest(); a != b {
		t.Errorf("faulted run under the sharded engine diverged from the sequential loop:\n%s\n%s", b, a)
	}
	ref := run(withEngine(1), experiment.WithLoopFlags(experiment.LoopFlags{NoFastForward: true}))
	if a, b := ref.Digest(), seq.Digest(); a != b {
		t.Errorf("faulted reference loop under the sharded engine diverged from the production loop:\n%s\n%s", b, a)
	}
	if engines[1].sweeps == 0 {
		t.Error("the reference loop never swept through the engine")
	}
}

// launchProbe wraps a client workload and counts the operations it
// launches: the workload keeps its "<prefix>:active" gauge, which a launch
// raises and nothing lowers during a poll.
type launchProbe struct {
	*workload.AppWorkload
	active   core.Gauge
	launched int
}

func (p *launchProbe) Poll(s *core.Simulation, now float64) {
	before := s.GaugeValueBy(p.active)
	p.AppWorkload.Poll(s, now)
	p.launched += int(s.GaugeValueBy(p.active) - before)
}

// TestShardedLaneLaunchesInsideSpans pins the lazily filled launch tables
// (cascade.Scratch) where many launchers share them: three data centers,
// each launching its own DC-confined operations from a workload registered
// in a setup hook — first launches compile programs and tier tables, every
// launch recycles bindings, expanders and flows — while 5% of the traffic
// crosses to the next data center, so cross-DC steps expand and fill the
// shared WAN route table in between. Every data center must launch, and the
// run must reproduce the sequential digest with a sharded engine attached
// and on the reference loop sweeping through it.
func TestShardedLaneLaunchesInsideSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("launch-table leg skipped in -short")
	}
	const dcs = 3
	name := func(d int) string { return fmt.Sprintf("DC%d", d%dcs) }
	srv := topology.ServerSpec{
		CPU: hardware.CPUSpec{Sockets: 1, Cores: 8, GHz: apps.ServerGHz}, MemGB: 32, CacheHitRate: 0.2, NICGbps: 10,
		RAID: &hardware.RAIDSpec{Disks: 4, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1}, CtrlGbps: 8, HitRate: 0.05},
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	run := func(eng core.Engine, flags core.LoopFlags) (string, []int) {
		t.Helper()
		spec := topology.InfraSpec{Clients: map[string]topology.ClientSpec{}}
		opts := []experiment.Option{experiment.WithSeed(5), experiment.WithStep(0.01), experiment.WithDuration(60),
			experiment.WithLoopFlags(flags)}
		if eng != nil {
			opts = append(opts, experiment.WithEngine(func() core.Engine { return eng }))
		}
		pdm, err := experiment.OpsByName("PDM", "")
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < dcs; d++ {
			dc, next := name(d), name(d+1)
			spec.DCs = append(spec.DCs, topology.DCSpec{
				Name: dc, SwitchGbps: 40, ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
				Tiers: []topology.TierSpec{
					{Name: "app", Servers: 3, Server: srv, LocalLink: local},
					{Name: "db", Servers: 2, Server: srv, LocalLink: local},
				},
			})
			spec.Clients[dc] = topology.ClientSpec{Slots: 32, NICGbps: 1, GHz: 2.5, DiskMBs: 120}
			spec.WAN = append(spec.WAN, topology.WANSpec{From: dc, To: next, Link: hardware.LinkSpec{Gbps: 1, LatencyMS: 120}})
			// The cross-DC share.
			opts = append(opts, experiment.WithWorkload(experiment.Workload{
				App: "PDM", DC: dc, Stream: 2,
				Users: workload.BusinessDay(30, 0, 24, 30), OpsPerUserHour: 40,
				OpsFn: pdm, OpsKey: "PDM", APM: workload.AccessMatrix{dc: {next: 1}},
			}))
		}
		probes := make([]*launchProbe, dcs)
		opts = append(opts, experiment.WithInfra(spec), experiment.WithSetup(func(r *experiment.Run) error {
			for d := range probes {
				dc := name(d)
				probes[d] = &launchProbe{
					AppWorkload: &workload.AppWorkload{
						App: "PDM-local", DC: dc, Stream: 1,
						Users: workload.BusinessDay(600, 0, 24, 600), OpsPerUserHour: 40,
						Ops: apps.PDMOps(), APM: workload.AccessMatrix{dc: {dc: 1}},
						Inf: r.Inf, GaugePrefix: "local:" + dc,
					},
					active: r.Sim.GaugeHandle("local:" + dc + ":active"),
				}
				r.Sim.AddSource(probes[d])
			}
			return nil
		}))
		e, err := experiment.New("lane-launches", opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		launched := make([]int, dcs)
		for d, p := range probes {
			launched[d] = p.launched
		}
		return res.Digest(), launched
	}
	seq, seqLaunched := run(nil, core.LoopFlags{})
	eng := sharded(dcs)
	got, launched := run(eng, core.LoopFlags{})
	checkIdle(t, eng)
	if got != seq {
		t.Errorf("digest diverged from the sequential loop:\n%s\n%s", seq, got)
	}
	for d := range launched {
		if launched[d] == 0 || launched[d] != seqLaunched[d] {
			t.Errorf("%s launched %d operations under the sharded engine, %d sequentially; want the same, > 0",
				name(d), launched[d], seqLaunched[d])
		}
	}
	ref := sharded(dcs)
	if got, _ := run(ref, core.LoopFlags{NoFastForward: true}); got != seq {
		t.Errorf("reference loop under the sharded engine diverged from the production loop:\n%s\n%s", seq, got)
	}
	if ref.sweeps == 0 {
		t.Error("the reference loop never swept through the engine")
	}
	t.Logf("launches per DC %v", launched)
}

// TestWindowSetsOnChaosDocument checks the window loop's two set invariants
// around every window of examples/chaos.json — the document `gdisim -doc`
// runs: fault transitions, rate changes on busy agents and WAN reroutes on
// a 117-agent platform. At every synchronization point the involved set is
// exactly the active set, which before every jump is the calendar, and no
// agent holds a buffered completion after any window (core.RunCheckingSets).
// The checked run must also be the run Execute makes: same completed
// operations, jumps and skipped ticks.
func TestWindowSetsOnChaosDocument(t *testing.T) {
	e, err := experiment.LoadDocument("../../examples/chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Sim.Shutdown()
	if err := core.RunCheckingSets(r.Sim, e.DurationSeconds()); err != nil {
		t.Fatal(err)
	}
	if err := r.Sim.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Sim.Stats(), res.Stats; got != want {
		t.Errorf("checked run %+v, Execute's %+v", got, want)
	}
}
