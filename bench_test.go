// Benchmarks regenerating the thesis' tables and figures. Each benchmark
// corresponds to one published artifact (see DESIGN.md's experiment index)
// and reports the headline quantity via b.ReportMetric so `go test -bench`
// prints the row the paper reports. The cmd/ binaries produce the complete
// tables; these benches run reduced-scale versions suitable for continuous
// measurement.
package gdisim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/apps"
	"repro/internal/background"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/hardware"
	"repro/internal/queueing"
	"repro/internal/refdata"
	"repro/internal/scenarios"
	"repro/internal/topology"
	"repro/internal/workload"
)

// speedupBench runs the Chapter 4 scaling workload (a slice of the
// consolidated platform) under one engine configuration, on the reference
// loop — the per-tick sweep the engines parallelize; the production loop
// never calls them. The time/op of each sub-benchmark is the "Simulation
// time" column of Tables 4.1/4.2; the speedup column is the ratio between
// the 1-thread and N-thread rows.
func speedupBench(b *testing.B, mkEngine func(threads int) core.Engine, threads int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
			Step: 0.01, Seed: 7, Engine: mkEngine(threads),
			StartHour: 13, EndHour: 14, Scale: 0.25,
			LoopFlags: core.LoopFlags{NoFastForward: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		cs.Sim.RunFor(30) // 30 simulated seconds inside the global peak
		cs.Sim.Shutdown()
	}
}

// BenchmarkTable41_ScatterGather: the classic Scatter-Gather mechanism
// (§4.3.4). The thesis' Table 4.1 shows no speedup with added threads —
// compare ns/op across the sub-benchmarks.
func BenchmarkTable41_ScatterGather(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			speedupBench(b, func(t int) core.Engine { return dispatch.NewScatterGather(t) }, n)
		})
	}
}

// BenchmarkTable42_HDispatch: the H-Dispatch mechanism with Agent Set=64
// (§4.3.5); Table 4.2's speedups are refdata.Table42HDispatch.
func BenchmarkTable42_HDispatch(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			speedupBench(b, func(t int) core.Engine { return dispatch.NewHDispatch(t, 64) }, n)
		})
	}
}

// BenchmarkTable51_CanonicalOps runs one isolated Average series through
// the validation infrastructure and reports the series duration — the
// TOTAL row of Table 5.1.
func BenchmarkTable51_CanonicalOps(b *testing.B) {
	var measured float64
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulation(core.Config{Step: 0.005, Seed: 1})
		inf, err := buildValidationInfra(sim)
		if err != nil {
			b.Fatal(err)
		}
		na := inf.DC("NA")
		series, err := apps.CalibratedCADSeries(inf, na, na, 0.005)
		if err != nil {
			b.Fatal(err)
		}
		var done float64
		launcher := &workload.SeriesLauncher{
			Series:       series[refdata.Average],
			Interval:     1e9,
			Until:        1,
			NewBinding:   func() *cascade.Binding { return cascade.NewBinding(inf, na, na) },
			OnSeriesDone: func(now float64) { done = now },
		}
		sim.AddSource(launcher)
		if err := sim.RunUntilIdle(600); err != nil {
			b.Fatal(err)
		}
		measured = done
	}
	b.ReportMetric(measured, "series-seconds")
	b.ReportMetric(refdata.SeriesTotal(refdata.Average), "paper-seconds")
}

func buildValidationInfra(sim *core.Simulation) (*Infrastructure, error) {
	return Build(sim, scenarios.ValidationInfraSpec())
}

// fidelityRow returns the evaluated fidelity row with the given ID.
func fidelityRow(b *testing.B, rows []scenarios.FidelityRow, id string) scenarios.FidelityRow {
	b.Helper()
	for _, r := range rows {
		if r.ID == id {
			return r
		}
	}
	b.Fatalf("no fidelity row %q", id)
	return scenarios.FidelityRow{}
}

// reportRow reports a fidelity row's measured value under unit and its
// thesis value under paper-unit.
func reportRow(b *testing.B, rows []scenarios.FidelityRow, id, unit string) {
	b.Helper()
	r := fidelityRow(b, rows, id)
	b.ReportMetric(r.Measured, unit)
	b.ReportMetric(r.Thesis, "paper-"+unit)
}

// shortValidation runs validation experiment 2 over its first ten minutes
// of launches.
func shortValidation(b *testing.B) []scenarios.FidelityRow {
	b.Helper()
	res, err := scenarios.RunValidation(scenarios.ValidationConfig{
		Experiment: 1, Seed: 42,
		LaunchFor: 600, RunFor: 700, SteadyStart: 300, SteadyEnd: 600,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Fidelity()
}

// BenchmarkFig56_ConcurrentClients runs a shortened validation experiment
// 2 and reports the steady concurrent-client level of Fig. 5-6.
func BenchmarkFig56_ConcurrentClients(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		rows = shortValidation(b)
	}
	reportRow(b, rows, "Fig. 5-6 exp 2 steady clients", "clients")
}

// BenchmarkFig57to510_CPUValidation runs a shortened validation experiment
// and reports the Tapp steady utilization of Fig. 5-7 / Table 5.2.
func BenchmarkFig57to510_CPUValidation(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		rows = shortValidation(b)
	}
	reportRow(b, rows, "Table 5.2 exp 2 app mean %", "app-util-%")
	reportRow(b, rows, "Table 5.3 exp 2 RMSE app %", "rmse-%")
}

// BenchmarkTable53_RMSE runs the full experiment 2 validation and reports
// the Table 5.3 RMSE for the application tier.
func BenchmarkTable53_RMSE(b *testing.B) {
	if testing.Short() {
		b.Skip("full validation in benchmarks skipped in -short")
	}
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		res, err := scenarios.RunValidation(scenarios.ValidationConfig{Experiment: 1, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Fidelity()
	}
	reportRow(b, rows, "Table 5.3 exp 2 RMSE app %", "rmse-%")
}

// backgroundDay runs a case study without interactive clients over a full
// day — the background-process experiments (Figs. 6-11, 6-14, 7-4..7-6).
func backgroundDay(b *testing.B, multi bool) *scenarios.CaseStudy {
	b.Helper()
	cfg := scenarios.CaseConfig{
		Step: 0.05, Seed: 7, Scale: 0.25, DisableClients: true,
	}
	var cs *scenarios.CaseStudy
	var err error
	if multi {
		cs, err = scenarios.NewMultiMaster(cfg)
	} else {
		cs, err = scenarios.NewConsolidation(cfg)
	}
	if err != nil {
		b.Fatal(err)
	}
	cs.Run()
	return cs
}

// BenchmarkFig611_SyncVolume reports the peak hourly push volume from DNA
// on the consolidated platform (Fig. 6-11; quarter scale, reported at full
// scale).
func BenchmarkFig611_SyncVolume(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		rows = backgroundDay(b, false).Fidelity()
	}
	reportRow(b, rows, "Fig. 6-11 NA peak push MB/h full-scale", "peak-push-MB-per-h-fullscale")
}

// BenchmarkFig614_Background reports R^max_SR and R^max_IB of the
// consolidated platform's daemons (Fig. 6-14).
func BenchmarkFig614_Background(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		rows = backgroundDay(b, false).Fidelity()
	}
	reportRow(b, rows, "Fig. 6-14 NA R^max_SR min", "R_SR-min")
	reportRow(b, rows, "Fig. 6-14 NA R^max_IB min", "R_IB-min")
}

// peakHours runs a case study with clients over the given GMT hours at a
// tenth of full scale.
func peakHours(b *testing.B, multi bool, start, end int) []scenarios.FidelityRow {
	b.Helper()
	cfg := scenarios.CaseConfig{Step: 0.01, Seed: 7, Scale: 0.1, StartHour: start, EndHour: end}
	newCase := scenarios.NewConsolidation
	if multi {
		newCase = scenarios.NewMultiMaster
	}
	cs, err := newCase(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cs.Run()
	return cs.Fidelity()
}

// BenchmarkFig612_Consolidation runs the client workload over two peak
// hours and reports the Tapp utilization of Fig. 6-12.
func BenchmarkFig612_Consolidation(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		rows = peakHours(b, false, 13, 15)
	}
	reportRow(b, rows, "Fig. 6-12 NA app peak %", "app-peak-%")
}

// BenchmarkTable61_LinkUtil reports the busiest-link utilization of
// Table 6.1 over the measured interval.
func BenchmarkTable61_LinkUtil(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		rows = peakHours(b, false, 12, 15)
	}
	reportRow(b, rows, "Table 6.1 NA->AS1 util %", "NA-AS1-%")
}

// BenchmarkTable62_Latency measures the isolated EXPLORE operation from
// DNA and DAUS and reports the latency penalty of Table 6.2.
func BenchmarkTable62_Latency(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.25,
			DisableClients: true, DisableBackground: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		na := cs.Inf.DC("NA")
		aus := cs.Inf.DC("AUS")
		ops, err := apps.CalibratedCADOps(cs.Inf, na, na, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		explore := ops[3]
		explore.Name = "CAD EXPLORE" // the name the fidelity row reads
		run := func(local *DataCenter) {
			bnd := cascade.NewBinding(cs.Inf, local, na)
			op, err := cascade.Instantiate(explore, bnd)
			if err != nil {
				b.Fatal(err)
			}
			launched := false
			cs.Sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
				if !launched {
					launched = true
					s.StartOp(op)
				}
			}))
			if err := cs.Sim.RunUntilIdle(300); err != nil {
				b.Fatal(err)
			}
		}
		run(na)
		run(aus)
		rows = cs.Fidelity()
	}
	reportRow(b, rows, "Table 6.2 EXPLORE delta %", "EXPLORE-delta-%")
}

// BenchmarkFig74_MultiMasterVolume reports DNA's peak hourly push volume
// on the multiple-master platform and its reduction from the consolidated
// one (Figs. 7-4 vs 6-11).
func BenchmarkFig74_MultiMasterVolume(b *testing.B) {
	var cons, multi []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		cons = backgroundDay(b, false).Fidelity()
		multi = backgroundDay(b, true).Fidelity()
	}
	reportRow(b, multi, "Fig. 7-4 NA peak push MB/h full-scale", "multi-push-MB-per-h-fullscale")
	c := fidelityRow(b, cons, "Fig. 6-11 NA peak push MB/h full-scale")
	m := fidelityRow(b, multi, "Fig. 7-4 NA peak push MB/h full-scale")
	b.ReportMetric((1-m.Measured/c.Measured)*100, "reduction-%")
	b.ReportMetric((1-m.Thesis/c.Thesis)*100, "paper-reduction-%")
}

// BenchmarkTable73_LinkUtil reports the multi-master NA->AS1 utilization
// of Table 7.3.
func BenchmarkTable73_LinkUtil(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		rows = peakHours(b, true, 12, 15)
	}
	reportRow(b, rows, "Table 7.3 NA->AS1 util %", "NA-AS1-%")
}

// BenchmarkFig76_Background reports the multi-master background
// effectiveness at DNA (Fig. 7-6).
func BenchmarkFig76_Background(b *testing.B) {
	var rows []scenarios.FidelityRow
	for i := 0; i < b.N; i++ {
		rows = backgroundDay(b, true).Fidelity()
	}
	reportRow(b, rows, "Fig. 7-6 NA R^max_SR min", "R_SR-min")
	reportRow(b, rows, "Fig. 7-6 NA R^max_IB min", "R_IB-min")
}

// activeSetBench runs the consolidation scenario over a 30-second slice of
// the given GMT hour. Off-peak hours leave almost every hardware agent idle,
// which is exactly the regime active-set scheduling targets: the sweep only
// touches agents with in-flight work instead of the full population.
func activeSetBench(b *testing.B, startHour, endHour int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.25,
			StartHour: startHour, EndHour: endHour,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cs.Sim.RunFor(30)
		b.StopTimer()
		cs.Sim.Shutdown()
		b.StartTimer()
	}
}

// BenchmarkActiveSet contrasts a sparse (off-peak, 03:00 GMT — utilization
// near the night floor) against a dense (global peak, 13:00 GMT) hour of the
// consolidation scenario. The sparse case is where active-set scheduling
// must show its win over the pre-change full-population sweep.
func BenchmarkActiveSet(b *testing.B) {
	b.Run("sparse", func(b *testing.B) { activeSetBench(b, 3, 4) })
	b.Run("dense", func(b *testing.B) { activeSetBench(b, 13, 14) })
}

// BenchmarkIdlePlatform runs an overnight, daemon-only hour of the
// consolidation scenario — the regime the event-horizon fast-forward
// targets: the platform sits idle between SYNCHREP/INDEXBUILD cycles, so
// the plain loop burns iterations on empty ticks while fast-forward jumps
// them. Compare the sub-benchmarks: results are bit-identical (the
// equivalence tests prove it); only the wall-clock differs.
func BenchmarkIdlePlatform(b *testing.B) {
	run := func(b *testing.B, noFF bool) {
		b.Helper()
		b.ReportAllocs()
		var jumps, skipped uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
				Seed: 7, Scale: 0.25,
				StartHour: 2, EndHour: 3,
				DisableClients: true,
				LoopFlags:      core.LoopFlags{NoFastForward: noFF},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			cs.Run()
			b.StopTimer()
			st := cs.Sim.Stats()
			jumps, skipped = st.Jumps, st.SkippedTicks
			cs.Sim.Shutdown()
			b.StartTimer()
		}
		b.ReportMetric(float64(jumps), "jumps")
		b.ReportMetric(float64(skipped), "skipped-ticks")
	}
	b.Run("fast-forward", func(b *testing.B) { run(b, false) })
	b.Run("tick-by-tick", func(b *testing.B) { run(b, true) })
}

// BenchmarkWindowHop times the production loop's one-hop window: one
// message circling a ring of eight NICs, each hop 2.4 ticks of service, so
// every window advances one agent and drains one completion — the shape of
// the campaign workload, whose 16 points run about 178k windows for 172k
// stage completions. An iteration runs one operation of 4 096 hops to idle;
// ns/op over the windows metric is the cost of one window.
func BenchmarkWindowHop(b *testing.B) {
	const nics, hops = 8, 4096
	b.ReportAllocs()
	var windows uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim := core.NewSimulation(core.Config{Step: 0.01, Seed: 1})
		ring := make([]hardware.NIC, nics)
		for j := range ring {
			ring[j].Init(sim, fmt.Sprintf("nic%d", j), 1)
		}
		stages := make([]core.Stage, hops)
		for j := range stages {
			stages[j] = core.Stage{Queue: &ring[j%nics], Demand: 3e6} // 24 ms at 1 Gbps
		}
		sim.StartOp(core.OpRun{Name: "HOP", DC: "NA", NumSteps: 1,
			Expander: core.ExpandFunc(func(int) []core.MessagePlan {
				return []core.MessagePlan{{Stages: stages}}
			})})
		b.StartTimer()
		if err := sim.RunUntilIdle(3600); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := sim.Stats()
		windows = uint64(st.Ticks) - st.SkippedTicks
		if st.CompletedOps != 1 {
			b.Fatalf("%d operations completed, want 1", st.CompletedOps)
		}
		sim.Shutdown()
		b.StartTimer()
	}
	b.ReportMetric(float64(windows), "windows")
}

// BenchmarkDenseBulk contrasts the production loop against the reference
// tick loop on the regime where skipping buys least: the global-peak
// business hour of the consolidation scenario, where every AppWorkload
// polls per tick and ~50 agents stay hot. The reference loop steps and
// drains every active agent every tick; the production loop steps only the
// agents whose event fires that tick (each lazy agent catches up in one
// horizon-bounded bulk replay) and drains only the popped-due set. BenchmarkIdlePlatform is the same A/B on the sparse regime. Results
// are bit-identical (TestBulkDenseEquivalence); the production leg's
// trajectory is bench/history.json's peak_hour rows.
func BenchmarkDenseBulk(b *testing.B) {
	run := func(b *testing.B, ref bool) {
		b.Helper()
		b.ReportAllocs()
		var ops uint64
		var active int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
				Step: 0.01, Seed: 7, Scale: 1,
				StartHour: 13, EndHour: 14,
				LoopFlags: core.LoopFlags{NoFastForward: ref},
			})
			if err != nil {
				b.Fatal(err)
			}
			cs.Sim.RunFor(90) // untimed warm-up: build peak-hour concurrency
			b.StartTimer()
			cs.Sim.RunFor(30)
			b.StopTimer()
			ops = cs.Sim.CompletedOps()
			active = cs.Sim.ActiveAgents()
			cs.Sim.Shutdown()
			b.StartTimer()
		}
		b.ReportMetric(float64(ops), "ops")
		b.ReportMetric(float64(active), "active-agents")
	}
	b.Run("production", func(b *testing.B) { run(b, false) })
	b.Run("reference", func(b *testing.B) { run(b, true) })
}

// localHeavy8DC assembles a coarse-grain platform: eight data centers in a
// WAN ring (120 ms hops), each with its own app and db tiers and 256 client
// slots, each running PDM for 3 000 users over the given simulated seconds.
// 95% of a DC's operations stay on files it masters and 5% go to the next
// DC around the ring, whose round trips are the only cross-DC traffic.
// extra options apply last.
func localHeavy8DC(mk func() core.Engine, seconds float64, extra ...experiment.Option) *experiment.Experiment {
	const dcs, users, opsPerUserHour, localShare = 8, 3000, 40, 0.95
	srv := func(cores int) topology.ServerSpec {
		return topology.ServerSpec{
			CPU:   hardware.CPUSpec{Sockets: 1, Cores: cores, GHz: apps.ServerGHz},
			MemGB: 64, NICGbps: 10,
			RAID: &hardware.RAIDSpec{
				Disks: 8, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
				CtrlGbps: 8, HitRate: 0.05,
			},
		}
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	name := func(d int) string { return fmt.Sprintf("DC%d", d%dcs) }
	spec := topology.InfraSpec{Clients: map[string]topology.ClientSpec{}}
	opts := []experiment.Option{experiment.WithSeed(7), experiment.WithStep(0.01), experiment.WithDuration(seconds)}
	if mk != nil {
		opts = append(opts, experiment.WithEngine(mk))
	}
	pdm, err := experiment.OpsByName("PDM", "")
	if err != nil {
		panic(err)
	}
	for d := 0; d < dcs; d++ {
		dc, next := name(d), name(d+1)
		spec.DCs = append(spec.DCs, topology.DCSpec{
			Name: dc, SwitchGbps: 40,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []topology.TierSpec{
				{Name: "app", Servers: 4, Server: srv(16), LocalLink: local},
				{Name: "db", Servers: 4, Server: srv(16), LocalLink: local},
			},
		})
		spec.Clients[dc] = topology.ClientSpec{Slots: 256, NICGbps: 1, GHz: 2.5, DiskMBs: 120}
		spec.WAN = append(spec.WAN, topology.WANSpec{From: dc, To: next,
			Link: hardware.LinkSpec{Gbps: 1, LatencyMS: 120}})
		for stream, w := range []struct {
			owner string
			share float64
		}{{dc, localShare}, {next, 1 - localShare}} {
			opts = append(opts, experiment.WithWorkload(experiment.Workload{
				App: "PDM", DC: dc, Stream: uint64(stream + 1),
				Users:          workload.BusinessDay(users*w.share, 0, 24, users*w.share),
				OpsPerUserHour: opsPerUserHour,
				OpsFn:          pdm, OpsKey: "PDM",
				APM: workload.AccessMatrix{dc: {w.owner: 1}},
			}))
		}
	}
	e, err := experiment.New("local-heavy-8dc", append(append(opts, experiment.WithInfra(spec)), extra...)...)
	if err != nil {
		panic(err)
	}
	return e
}

// TestLocalHeavyShardedMatchesSequential pins, on a short run of the
// local-heavy platform, that a 4-worker dispatch.Sharded engine changes no
// bit — on the production loop, which never calls it, and on the reference
// loop, which sweeps through it every tick — and leaves the deprecated span
// counters at 0.
func TestLocalHeavyShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("local-heavy equivalence skipped in -short")
	}
	run := func(mk func() core.Engine, flags core.LoopFlags) (string, core.RunStats) {
		res, err := localHeavy8DC(mk, 20, experiment.WithLoopFlags(flags)).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest(), res.Stats
	}
	sharded := func() core.Engine { return dispatch.NewSharded(4) }
	seq, _ := run(nil, core.LoopFlags{})
	got, st := run(sharded, core.LoopFlags{})
	if got != seq {
		t.Errorf("sharded-4 digest diverged from sequential:\n%s\n%s", seq, got)
	}
	if st.Barriers != 0 || st.WindowsStretched != 0 || st.MailboxApplied != 0 {
		t.Errorf("deprecated span counters nonzero: %+v", st)
	}
	if ref, _ := run(sharded, core.LoopFlags{NoFastForward: true}); ref != seq {
		t.Errorf("sharded-4 reference-loop digest diverged from sequential:\n%s\n%s", seq, ref)
	}
}

// BenchmarkDayNightClients runs the day-night client scenario — the
// validation platform under a 24 h business-day curve with a 5% night
// floor at the default 10 ms step, thinned arrivals on both legs — on the
// production loop against the reference loop, which ticks through all
// 8.64M steps; thinning turns the night into sampled arrival gaps the
// production loop jumps across. Results are bit-identical, so the
// wall-clock ratio is the cost of the loop alone.
func BenchmarkDayNightClients(b *testing.B) {
	run := func(b *testing.B, flags core.LoopFlags) {
		b.Helper()
		b.ReportAllocs()
		var res *scenarios.DayNightResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = scenarios.RunDayNight(scenarios.DayNightConfig{Seed: 7, LoopFlags: flags})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.CompletedOps), "ops")
		b.ReportMetric(float64(res.Jumps), "jumps")
		b.ReportMetric(float64(res.SkippedTicks), "skipped-ticks")
	}
	b.Run("thinned", func(b *testing.B) { run(b, core.LoopFlags{}) })
	b.Run("reference", func(b *testing.B) { run(b, core.LoopFlags{NoFastForward: true}) })
}

// BenchmarkFluidDayNight is the fluid tier's headline: the 24 h day-night
// scenario at 10 million peak users, carried entirely by the analytic
// aggregation (RunDayNightFluid — zero discrete client launches), against
// the 60-user discrete reference the thinned production loop runs
// (BenchmarkDayNightClients/thinned, repeated here as the
// "discrete-60" leg so both legs land in one table row pair). The
// acceptance envelope is wall-clock: fluid-10M must finish within 2x the
// discrete 60-user run despite simulating five orders of magnitude more
// client traffic. The analytic-ops metric is the integral of the offered
// curve (~191M operations/day); the discrete leg reports the ops it
// actually completed.
func BenchmarkFluidDayNight(b *testing.B) {
	b.Run("fluid-10M", func(b *testing.B) {
		b.ReportAllocs()
		var res *scenarios.DayNightResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = scenarios.RunDayNightFluid(scenarios.DayNightConfig{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			if res.CompletedOps != 0 {
				b.Fatalf("fluid run launched %d discrete operations", res.CompletedOps)
			}
		}
		ops := res.Result.Series["fluid:CAD:NA:ops"]
		if ops == nil || ops.Len() == 0 {
			b.Fatal("fluid run recorded no analytic volume")
		}
		b.ReportMetric(ops.V[ops.Len()-1], "analytic-ops")
		b.ReportMetric(float64(res.Config.PeakUsers), "peak-users")
	})
	b.Run("discrete-60", func(b *testing.B) {
		b.ReportAllocs()
		var res *scenarios.DayNightResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = scenarios.RunDayNight(scenarios.DayNightConfig{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.CompletedOps), "ops")
	})
}

// Microbenchmarks of the queueing substrate.

func BenchmarkFCFSQueueStep(b *testing.B) {
	q := queueing.NewFCFS(8, 2.5e9)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			q.Enqueue(&queueing.Task{ID: uint64(i), Demand: 2.5e7 * (1 + rng.Float64())})
		}
		q.Step(0.01, func(*queueing.Task) {})
	}
}

func BenchmarkPSLinkStep(b *testing.B) {
	q := queueing.NewPS(19.375e6, 256, 0.045)
	rng := rand.New(rand.NewPCG(3, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			q.Enqueue(&queueing.Task{ID: uint64(i), Demand: 1e5 * (1 + rng.Float64())})
		}
		q.Step(0.01, func(*queueing.Task) {})
	}
}

// BenchmarkBulkStep times the quiet-tick replay the production loop hands
// an agent whose next event lies beyond its window: FCFS with 1, 4 and 16
// tasks in service and PS with 1 and 4 transferring, over windows of 8, 24
// (the mean window on validation_day) and 256 ticks. Demands are large
// enough that nothing completes however long the benchmark runs.
func BenchmarkBulkStep(b *testing.B) {
	const dt = 0.01
	type bulkStepper interface{ BulkStep(n int, dt float64) }
	type queueCase struct {
		name string
		mk   func() bulkStepper
	}
	var cases []queueCase
	for _, k := range []int{1, 4, 16} {
		cases = append(cases, queueCase{fmt.Sprintf("fcfs-%d", k), func() bulkStepper {
			q := queueing.NewFCFS(k, 1)
			for i := range k {
				q.Enqueue(&queueing.Task{ID: uint64(i), Demand: 1e12})
			}
			return q
		}})
	}
	for _, k := range []int{1, 4} {
		cases = append(cases, queueCase{fmt.Sprintf("ps-%d", k), func() bulkStepper {
			q := queueing.NewPS(1, k, 0)
			for i := range k {
				q.Enqueue(&queueing.Task{ID: uint64(i), Demand: 1e12})
			}
			return q
		}})
	}
	for _, c := range cases {
		for _, n := range []int{8, 24, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				q := c.mk()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q.BulkStep(n, dt)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tick")
			})
		}
	}
}

func BenchmarkGrowthIntegration(b *testing.B) {
	g := background.GrowthModel{
		"NA": workload.BusinessDay(1000, 13, 22, 50),
		"EU": workload.BusinessDay(520, 8, 17, 26),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.VolumeMB("NA", 0, 900)
	}
}

// busyAgent mirrors internal/dispatch's dense-sweep agent: fixed CPU-bound
// work per step, matching the per-handler cost regime of the thesis'
// implementation whose Tables 4.1/4.2 were measured against.
type busyAgent struct {
	core.AgentBase
	state uint64
	spins int
}

func (a *busyAgent) Step(dt float64) {
	x := a.state
	for i := 0; i < a.spins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	a.state = x
}

// Idle is false: a dense-sweep agent does work every tick without queued
// tasks, so it is active from registration on.
func (a *busyAgent) Idle() bool { return false }

// denseSweep measures engine scaling with thesis-comparable per-agent work,
// on the reference loop (the one that sweeps through the engine). Compare
// ns/op across thread counts: Table 4.1's Scatter-Gather stays far from
// linear while Table 4.2's H-Dispatch approaches it.
func denseSweep(b *testing.B, eng core.Engine) {
	b.Helper()
	sim := core.NewSimulation(core.Config{Step: 0.01, Seed: 1, Engine: eng, LoopFlags: core.LoopFlags{NoFastForward: true}})
	defer sim.Shutdown()
	for i := 0; i < 2048; i++ {
		a := &busyAgent{state: 0x9e3779b97f4a7c15, spins: 3000}
		a.InitAgent(sim.NextAgentID(), "busy")
		sim.AddAgent(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Tick()
	}
}

// BenchmarkFig44_ScatterGatherDense: Fig. 4-4 — Scatter-Gather vs linear.
func BenchmarkFig44_ScatterGatherDense(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			denseSweep(b, dispatch.NewScatterGather(n))
		})
	}
}

// BenchmarkFig46_HDispatchDense: Fig. 4-6 — H-Dispatch vs linear (thesis
// speedups in refdata.Table42HDispatch, Agent Set=64).
func BenchmarkFig46_HDispatchDense(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			denseSweep(b, dispatch.NewHDispatch(n, 64))
		})
	}
}
