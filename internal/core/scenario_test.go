package core_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/hardware"
	"repro/internal/scenarios"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The sharded runtime on real platforms. The thesis scenarios are too small
// to clear the grain gate — a stretched span under live cross-DC traffic is
// capped at the WAN lookahead, a handful of ticks over a few dozen live
// agents — so at its production setting the span scheduler, the lanes and the
// inboxes never run on topology-built agents (internal/scenarios pins that
// standing aside). These tests force the gate open (core.ForcedGrain, which
// is why they live here and not beside the scenarios) and pin the machinery
// where it is production-reachable above the grain: the derived shard plan
// and WAN lookahead, real WAN links' Latency/FreeSlot, lane-confined client
// workloads, and the fault controller acting as a global source.

// forkAll is dispatch.NewSharded(n) with every admissible span forked.
func forkAll(n int) core.Engine { return core.ForcedGrain{ShardRunner: dispatch.NewSharded(n)} }

// TestStretchBarrierDrop is the headline guarantee of window stretching: on
// the fine-step day-night scenario with per-tick Poisson polls (the worst
// case for a loop that returns to the root every window), spans must cut the
// root's synchronization points — barriers plus root windows — by at least
// 5x while reproducing the NoStretch and sequential digests bit for bit. In
// practice the drop is ~2 orders of magnitude — spans run straight to the
// next collector boundary — but the test pins only the acceptance floor.
func TestStretchBarrierDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario-level stretch leg skipped in -short")
	}
	run := func(eng core.Engine, noStretch bool) *scenarios.DayNightResult {
		t.Helper()
		res, err := scenarios.RunDayNight(scenarios.DayNightConfig{
			Seed: 42, Hours: 1, Engine: eng,
			LoopFlags: core.LoopFlags{NoThinning: true, NoStretch: noStretch},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := run(forkAll(1), false).Result, run(forkAll(1), true).Result

	if on.Stats.WindowsStretched == 0 || on.Stats.Barriers == 0 {
		t.Fatal("stretching never engaged; the test pins nothing")
	}
	if off.Stats.WindowsStretched != 0 || off.Stats.Barriers != 0 {
		t.Errorf("NoStretch run stretched %d windows behind %d barriers, want none", off.Stats.WindowsStretched, off.Stats.Barriers)
	}
	syncOn, syncOff := on.Stats.Barriers+on.Stats.WindowsInline, off.Stats.WindowsInline
	if ratio := float64(syncOff) / float64(syncOn); ratio < 5 {
		t.Errorf("root synchronization points dropped only %.1fx (stretched %d, NoStretch %d), want >= 5x", ratio, syncOn, syncOff)
	}
	if len(on.Stats.ShardStretch) == 0 {
		t.Error("stretched run reported no per-shard stretch counters")
	}

	// Stretching must not change a single bit of what the run computed.
	seq := run(nil, false).Result
	if a, b := on.Digest(), off.Digest(); a != b {
		t.Errorf("stretched digest diverged from NoStretch:\n%s\n%s", a, b)
	}
	if a, b := on.Digest(), seq.Digest(); a != b {
		t.Errorf("stretched digest diverged from sequential loop:\n%s\n%s", a, b)
	}
}

// TestMailboxDueTimeSafety is the lookahead-safety property test: every
// cross-shard inbox message carries a WAN-delayed due time, and the
// receiving shard must never apply one at or past it. The apply path panics
// on a violation, so the test's job is to prove the property was actually
// exercised — on the consolidation platform, with the per-shard lookahead
// the topology derives installed, spans form despite live cross-DC cascades
// (WindowsStretched > 0) and thousands of their WAN hops land mid-span
// through the shard inboxes — and that the observed slack never went
// negative. Every shard count must reproduce the sequential digest bit for
// bit, as must NoCrossStretch (spans only between cross flows, nothing
// posted) and NoStretch (no spans): mid-span delivery is a scheduling
// change, never a results change. The audit takes its "on" shape exactly
// when something was posted.
func TestMailboxDueTimeSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("mailbox safety property skipped in -short")
	}
	run := func(eng core.Engine, flags core.LoopFlags) *scenarios.CaseStudy {
		t.Helper()
		cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4,
			Engine: eng, LoopFlags: flags,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		return cs
	}
	ref := run(nil, core.LoopFlags{}).Result.Digest()

	cs := run(forkAll(4), core.LoopFlags{})
	applied, minSlack, ok := cs.Sim.MailboxAudit()
	if !ok || applied == 0 {
		t.Fatalf("MailboxAudit = (%d, %d, %v): no cross-shard inbox traffic; the property was never exercised", applied, minSlack, ok)
	}
	if minSlack < 0 {
		t.Errorf("an inbox message was applied %d ticks past its due instant", -minSlack)
	}
	if st := cs.Result.Stats; st.WindowsStretched == 0 {
		t.Error("no window stretched under live cross-DC traffic; mid-span delivery never engaged")
	} else if st.MailboxApplied != applied || st.MailboxMinSlack != int64(minSlack) {
		t.Errorf("RunStats mailbox mirror (%d, %d) diverged from MailboxAudit (%d, %d)",
			st.MailboxApplied, st.MailboxMinSlack, applied, minSlack)
	}
	if got := cs.Result.Digest(); got != ref {
		t.Errorf("mid-span delivery diverged from sequential loop:\n%s\n%s", ref, got)
	}
	t.Logf("mailbox audit: %d messages applied, minimum slack %d ticks, %d windows stretched behind %d barriers",
		applied, minSlack, cs.Result.Stats.WindowsStretched, cs.Result.Stats.Barriers)

	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("digest-sharded-%d", n), func(t *testing.T) {
			cs := run(forkAll(n), core.LoopFlags{})
			if got := cs.Result.Digest(); got != ref {
				t.Errorf("mid-span delivery diverged from sequential loop:\n%s\n%s", ref, got)
			}
			if cs.Result.Stats.WindowsStretched == 0 {
				t.Error("no window stretched")
			}
		})
	}
	for _, tc := range []struct {
		name      string
		flags     core.LoopFlags
		stretches bool
	}{
		{"nocross", core.LoopFlags{NoCrossStretch: true}, true},
		{"nostretch", core.LoopFlags{NoStretch: true}, false},
	} {
		t.Run("sharded-4-"+tc.name, func(t *testing.T) {
			cs := run(forkAll(4), tc.flags)
			if got := cs.Result.Digest(); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
			if got := cs.Result.Stats.WindowsStretched > 0; got != tc.stretches {
				t.Errorf("%d windows stretched, want stretching = %v", cs.Result.Stats.WindowsStretched, tc.stretches)
			}
			// Nothing crosses shards mid-span, so nothing is ever posted.
			if applied, minSlack, ok := cs.Sim.MailboxAudit(); applied != 0 || minSlack != 0 || ok {
				t.Errorf("MailboxAudit = (%d, %d, %v), want the off shape (0, 0, false)", applied, minSlack, ok)
			}
		})
	}
}

// TestChaosStretchBarriers pins the fault-schedule contract under window
// stretching: the fault controller is a global source, so its next
// transition tick bounds every span and returns the loop to the root exactly
// on schedule — injections and recoveries land at their configured instants,
// never absorbed into a stretched span, and the faulted run stays
// bit-identical to its NoStretch twin and to the sequential loop. The chaos
// workload's cascades run cross-DC (EU clients against the NA master), so
// any stretching here is cross-flow stretching: spans form inside the WAN
// lookahead while global tokens are in flight — across a link whose latency
// the partition changes — and the fault ticks still land exactly.
func TestChaosStretchBarriers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stretch leg skipped in -short")
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
			t.Fatalf("fault transitions at %v/%v, want exactly 120/240 — a stretched span crossed a fault tick",
				ir.InjectedAt, ir.RecoveredAt)
		}
		return res
	}
	mkEngine := experiment.WithEngine(func() core.Engine { return forkAll(3) })
	seq := run()
	on := run(mkEngine)
	off := run(mkEngine, experiment.WithLoopFlags(experiment.LoopFlags{NoStretch: true}))
	if a, b := on.Digest(), off.Digest(); a != b {
		t.Errorf("faulted run diverged between stretch and NoStretch:\n%s\n%s", a, b)
	}
	if a, b := on.Digest(), seq.Digest(); a != b {
		t.Errorf("faulted stretched run diverged from sequential loop:\n%s\n%s", a, b)
	}
	if on.Stats.WindowsStretched == 0 {
		t.Error("no window stretched under the cross-DC chaos workload; the cross-flow leg pins nothing")
	}
	if on.Stats.MailboxApplied == 0 || on.Stats.MailboxMinSlack < 0 {
		t.Errorf("faulted run applied %d inbox messages, minimum slack %d ticks; want deliveries, none past its due instant",
			on.Stats.MailboxApplied, on.Stats.MailboxMinSlack)
	}
	if off.Stats.WindowsStretched != 0 {
		t.Errorf("NoStretch run stretched %d windows, want 0", off.Stats.WindowsStretched)
	}
}

// spanProbe wraps a lane-confined client workload and counts the operations
// it launches from inside stretched spans: the workload keeps its
// "<prefix>:active" gauge, which a launch raises and nothing lowers during a
// poll. Each probe belongs to one data center, so only that lane writes it.
type spanProbe struct {
	*workload.AppWorkload
	active core.Gauge
	inSpan int
}

func (p *spanProbe) Poll(s *core.Simulation, now float64) {
	before := s.GaugeValueBy(p.active)
	p.AppWorkload.Poll(s, now)
	if s.InSpan() {
		p.inSpan += int(s.GaugeValueBy(p.active) - before)
	}
}

// TestShardedLaneLaunchesInsideSpans pins the lane-safety rule of the
// lazily filled launch tables (cascade.Scratch: "filled only in sequential
// phases, or confined to one data center") where it can break: three data
// centers, each launching its own lane-confined operations from inside
// stretched spans — first launches compile programs and tier tables there,
// every launch recycles bindings, expanders and flows on its lane — while
// 5% of the traffic crosses to the next data center, so cross-DC steps
// expand, and fill the shared WAN route table, in the sequential phases in
// between. Run under the race detector (CI's sharded-equivalence selection
// matches the name) it catches a table shared across lanes; the digest
// catches one that changes a draw.
func TestShardedLaneLaunchesInsideSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("lane-launch leg skipped in -short")
	}
	const dcs = 3
	name := func(d int) string { return fmt.Sprintf("DC%d", d%dcs) }
	srv := topology.ServerSpec{
		CPU: hardware.CPUSpec{Sockets: 1, Cores: 8, GHz: apps.ServerGHz}, MemGB: 32, CacheHitRate: 0.2, NICGbps: 10,
		RAID: &hardware.RAIDSpec{Disks: 4, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1}, CtrlGbps: 8, HitRate: 0.05},
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	run := func(mk func() core.Engine) (string, []int, core.RunStats) {
		t.Helper()
		spec := topology.InfraSpec{Clients: map[string]topology.ClientSpec{}}
		opts := []experiment.Option{experiment.WithSeed(5), experiment.WithStep(0.01), experiment.WithDuration(60)}
		if mk != nil {
			opts = append(opts, experiment.WithEngine(mk))
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
			// The cross-DC share: a global source, expanded between spans.
			opts = append(opts, experiment.WithWorkload(experiment.Workload{
				App: "PDM", DC: dc, Stream: 2,
				Users: workload.BusinessDay(30, 0, 24, 30), OpsPerUserHour: 40,
				OpsFn: pdm, OpsKey: "PDM", APM: workload.AccessMatrix{dc: {next: 1}},
			}))
		}
		probes := make([]*spanProbe, dcs)
		opts = append(opts, experiment.WithInfra(spec), experiment.WithSetup(func(r *experiment.Run) error {
			for d := range probes {
				dc := name(d)
				w := &workload.AppWorkload{
					App: "PDM-local", DC: dc, Stream: 1,
					Users: workload.BusinessDay(600, 0, 24, 600), OpsPerUserHour: 40,
					Ops: apps.PDMOps(), APM: workload.AccessMatrix{dc: {dc: 1}},
					Inf: r.Inf, GaugePrefix: "local:" + dc,
				}
				if !w.LaneSafe() {
					return fmt.Errorf("workload at %s is not lane-safe", dc)
				}
				w.InitSource(r.Sim)
				probes[d] = &spanProbe{AppWorkload: w, active: r.Sim.GaugeHandle("local:" + dc + ":active")}
				r.Sim.AddLaneSource(probes[d], dc)
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
		inSpan := make([]int, dcs)
		for d, p := range probes {
			inSpan[d] = p.inSpan
		}
		return res.Digest(), inSpan, res.Stats
	}
	seq, seqInSpan, _ := run(nil)
	got, inSpan, st := run(func() core.Engine { return forkAll(dcs) })
	if got != seq {
		t.Errorf("digest diverged from the sequential loop:\n%s\n%s", seq, got)
	}
	for d := range inSpan {
		if seqInSpan[d] != 0 {
			t.Errorf("sequential run reported %d in-span launches at %s", seqInSpan[d], name(d))
		}
		if inSpan[d] == 0 {
			t.Errorf("no operation launched from inside a span at %s; the lane-safety rule was not exercised", name(d))
		}
	}
	if st.WindowsStretched == 0 || st.MailboxApplied == 0 {
		t.Errorf("%d windows stretched, %d cross-shard deliveries: want lanes running under live cross-DC traffic",
			st.WindowsStretched, st.MailboxApplied)
	}
	t.Logf("in-span launches per DC %v of %d completed operations; %d windows stretched behind %d barriers",
		inSpan, st.CompletedOps, st.WindowsStretched, st.Barriers)
}
