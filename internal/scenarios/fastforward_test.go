package scenarios

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/metrics"
)

// ffEngines is the engine matrix the loop equivalence runs under: the
// sequential engine, both Chapter 4 parallel engines and dispatch.Sharded.
// Each test runs both loops under the same engine: the production loop never
// sweeps through it (core's TestProductionLoopNeverCallsEngine), the
// reference loop sweeps every tick through it, so each non-sequential leg
// is also that engine's determinism check on the reference loop, thinned
// client arrivals included.
func ffEngines() []struct {
	name string
	mk   func() core.Engine
} {
	return []struct {
		name string
		mk   func() core.Engine
	}{
		{"sequential", func() core.Engine { return &core.SequentialEngine{} }},
		{"scatter-gather-4", func() core.Engine { return dispatch.NewScatterGather(4) }},
		{"h-dispatch-4x64", func() core.Engine { return dispatch.NewHDispatch(4, 64) }},
		{"sharded-4", func() core.Engine { return dispatch.NewSharded(4) }},
	}
}

// sameResponses asserts two response trackers hold identical populations:
// same (op, dc) keys, same sample count, bit-identical timestamps and
// durations.
func sameResponses(t *testing.T, ref, got *metrics.Responses) {
	t.Helper()
	refKeys, gotKeys := ref.Keys(), got.Keys()
	if len(refKeys) != len(gotKeys) {
		t.Fatalf("response keys: %d vs %d", len(refKeys), len(gotKeys))
	}
	for i, k := range refKeys {
		if gotKeys[i] != k {
			t.Fatalf("response key %d: %v vs %v", i, k, gotKeys[i])
		}
		sameSeries(t, fmt.Sprintf("responses %s@%s", k.Op, k.DC),
			ref.Series(k.Op, k.DC), got.Series(k.Op, k.DC))
	}
}

// sameCollector asserts two collectors recorded identical series sets with
// bit-identical samples.
func sameCollector(t *testing.T, ref, got *metrics.Collector) {
	t.Helper()
	refKeys, gotKeys := ref.Keys(), got.Keys()
	if len(refKeys) != len(gotKeys) {
		t.Fatalf("collector keys: %d vs %d", len(refKeys), len(gotKeys))
	}
	for i, k := range refKeys {
		if gotKeys[i] != k {
			t.Fatalf("collector key %d: %q vs %q", i, k, gotKeys[i])
		}
		sameSeries(t, k, ref.Series(k), got.Series(k))
	}
}

// reference selects the reference loop when ref is set.
func reference(ref bool) core.LoopFlags { return core.LoopFlags{NoFastForward: ref} }

// TestFastForwardEquivalenceOnValidation proves the production loop is a
// pure performance change on the Chapter 5 validation scenario: completed
// operations, every response record and every collector series must be
// bit-identical to the reference tick loop, under every engine. The
// scenario mixes dense activity (overlapping series) with quiet stretches
// (between launches and the post-launch drain), so the jump, the veto, the
// poll-skipping and the lazy-stepping paths are all exercised.
func TestFastForwardEquivalenceOnValidation(t *testing.T) {
	launchFor, runFor := 120.0, 150.0
	if testing.Short() {
		launchFor, runFor = 45, 75
	}
	run := func(eng core.Engine, ref bool) *ValidationResult {
		res, err := RunValidation(ValidationConfig{
			Experiment: 1, Seed: 42, Engine: eng,
			LaunchFor: launchFor, RunFor: runFor,
			SteadyStart: 30, SteadyEnd: launchFor,
			LoopFlags: reference(ref),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range ffEngines() {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := run(tc.mk(), true), run(tc.mk(), false)
			if ref.CompletedOps != got.CompletedOps {
				t.Errorf("completed ops: %d vs %d", ref.CompletedOps, got.CompletedOps)
			}
			sameResponses(t, ref.Responses, got.Responses)
			sameSeries(t, "clients", ref.Clients, got.Clients)
			for tier, s := range ref.CPU {
				sameSeries(t, "cpu:"+tier, s, got.CPU[tier])
			}
		})
	}
}

// TestNoThinningBitIdentityWithClients proves the production loop stays
// bit-identical to the reference loop with open Poisson client workloads
// attached, thinned on both sides: a night-floor hour of the Chapter 6
// consolidation, where sparse workloads are due only at their committed
// arrival instants while the daemons' no-op polls are skipped wholesale.
// (The name predates thinning on the reference loop.)
func TestNoThinningBitIdentityWithClients(t *testing.T) {
	run := func(eng core.Engine, noFF bool) *CaseStudy {
		cs, err := NewConsolidation(CaseConfig{
			Step: 0.01, Seed: 11, Scale: 0.1,
			StartHour: 3, EndHour: 4,
			Engine:    eng,
			LoopFlags: reference(noFF),
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		cs.Sim.Shutdown()
		return cs
	}
	for _, tc := range ffEngines() {
		t.Run(tc.name, func(t *testing.T) {
			ref := run(tc.mk(), true)
			got := run(tc.mk(), false)
			if r, g := ref.Sim.CompletedOps(), got.Sim.CompletedOps(); r != g {
				t.Errorf("completed ops: %d vs %d", r, g)
			}
			sameResponses(t, ref.Sim.Responses, got.Sim.Responses)
			sameCollector(t, ref.Sim.Collector, got.Sim.Collector)
		})
	}
}

// TestBulkDenseEquivalence proves lazy stepping — involved-only sweeps
// with agent-local catch-up and the calendar-driven drain — is a pure
// performance change where it does the most: a dense business-hour
// consolidation slice with interactive clients, and the day-night client
// scenario, must produce bit-identical completed-operation counts,
// response records and collector series against the reference loop, with
// the thinned arrivals of the production configuration on both sides,
// under every engine. The sequential leg runs the whole day; the other
// engines run its first six hours (night floor plus the ramp into the
// business window), enough to check each one against the production loop.
func TestBulkDenseEquivalence(t *testing.T) {
	for _, tc := range ffEngines() {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("consolidation-dense", func(t *testing.T) {
				if testing.Short() && tc.name != "sequential" {
					t.Skip("dense consolidation engine matrix skipped in -short")
				}
				run := func(ref bool) *CaseStudy {
					cs, err := NewConsolidation(CaseConfig{
						Step: 0.01, Seed: 7, Scale: 0.25,
						StartHour: 13, EndHour: 14, // the global peak: the dense regime
						Engine:    tc.mk(),
						LoopFlags: reference(ref),
					})
					if err != nil {
						t.Fatal(err)
					}
					cs.Sim.RunFor(180)
					cs.Sim.Shutdown()
					return cs
				}
				ref, got := run(true), run(false)
				if r, g := ref.Sim.CompletedOps(), got.Sim.CompletedOps(); r != g {
					t.Errorf("completed ops: %d vs %d", r, g)
				}
				sameResponses(t, ref.Sim.Responses, got.Sim.Responses)
				sameCollector(t, ref.Sim.Collector, got.Sim.Collector)
			})
			t.Run("day-night", func(t *testing.T) {
				if testing.Short() && tc.name != "sequential" {
					t.Skip("day-night engine matrix skipped in -short")
				}
				hours := 24.0
				if testing.Short() || tc.name != "sequential" {
					hours = 6 // night floor plus the ramp into the business window
				}
				run := func(ref bool) *DayNightResult {
					res, err := RunDayNight(DayNightConfig{
						Seed: 42, Hours: hours, Engine: tc.mk(),
						LoopFlags: reference(ref),
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				ref, got := run(true), run(false)
				if ref.CompletedOps != got.CompletedOps {
					t.Errorf("completed ops: %d vs %d", ref.CompletedOps, got.CompletedOps)
				}
				sameResponses(t, ref.Responses, got.Responses)
				sameCollector(t, ref.Sim.Collector, got.Sim.Collector)
			})
		})
	}
}

// TestDayNightLoopEquivalence pins that, with thinning on, the production
// loop jumps heavily across the night floor — the regime the thinned
// sampler unlocks. The other guarantee of the scenario, bit-identity to the
// reference loop, is TestBulkDenseEquivalence's day-night leg.
func TestDayNightLoopEquivalence(t *testing.T) {
	hours := 24.0
	if testing.Short() {
		hours = 6 // night floor plus the ramp into the business window
	}
	res, err := RunDayNight(DayNightConfig{Seed: 42, Hours: hours})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedTicks < 100000 {
		t.Errorf("thinned run skipped only %d ticks; the night floor should fast-forward", res.SkippedTicks)
	}
}

// TestThinnedArrivalEquivalence is the statistical half of the acceptance
// contract: thinning changes the RNG draw sequence but not the arrival
// law, so completed-operation counts and response-time distributions on
// the day-night scenario must agree with per-tick draws (the workload's
// ThinBelow -1) within sampling tolerance. Counts are compared at five
// sigma of their summed Poisson variance; response distributions through
// their pooled mean and 90th percentile. The per-tick run must skip far
// fewer ticks than the thinned one, or the comparison would be thinned
// against thinned.
func TestThinnedArrivalEquivalence(t *testing.T) {
	thin, err := RunDayNight(DayNightConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tick, err := runDayNight(DayNightConfig{Seed: 42}, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if tick.SkippedTicks >= thin.SkippedTicks/10 {
		t.Fatalf("per-tick run skipped %d ticks against the thinned run's %d; want far fewer",
			tick.SkippedTicks, thin.SkippedTicks)
	}
	t.Logf("skipped ticks: thinned %d, per-tick %d", thin.SkippedTicks, tick.SkippedTicks)
	a, b := float64(thin.CompletedOps), float64(tick.CompletedOps)
	if diff, tol := math.Abs(a-b), 5*math.Sqrt(a+b); diff > tol {
		t.Errorf("completed ops %v vs %v differ by %v > 5-sigma tolerance %v", a, b, diff, tol)
	}
	ta, ma, pa := pooledDurations(thin.Responses)
	tb, mb, pb := pooledDurations(tick.Responses)
	if ta < 500 || tb < 500 {
		t.Fatalf("too few samples to compare distributions: %v vs %v", ta, tb)
	}
	if rel := math.Abs(ma-mb) / mb; rel > 0.10 {
		t.Errorf("mean response %v vs %v: relative diff %.3f > 0.10", ma, mb, rel)
	}
	if rel := math.Abs(pa-pb) / pb; rel > 0.15 {
		t.Errorf("p90 response %v vs %v: relative diff %.3f > 0.15", pa, pb, rel)
	}
}

// pooledDurations flattens every response series into one population and
// returns its size, mean and 90th percentile.
func pooledDurations(r *metrics.Responses) (n int, mean, p90 float64) {
	var all []float64
	for _, k := range r.Keys() {
		all = append(all, r.Series(k.Op, k.DC).V...)
	}
	if len(all) == 0 {
		return 0, 0, 0
	}
	sum := 0.0
	for _, v := range all {
		sum += v
	}
	sort.Float64s(all)
	return len(all), sum / float64(len(all)), all[len(all)*9/10]
}

// TestFastForwardEquivalenceOnConsolidation proves equivalence on the
// Chapter 6 case study in the regime fast-forward targets: a daemon-only
// overnight window where the platform sits idle between SYNCHREP/INDEXBUILD
// cycles. The fast-forward run must take real jumps (not trivially
// degenerate into the plain loop) and still reproduce every output bit for
// bit, including the daemons' own volume and duration series.
func TestFastForwardEquivalenceOnConsolidation(t *testing.T) {
	endHour := 4
	if testing.Short() {
		endHour = 3
	}
	run := func(eng core.Engine, noFF bool) *CaseStudy {
		cs, err := NewConsolidation(CaseConfig{
			Step: 0.05, Seed: 7, Scale: 0.25,
			StartHour: 2, EndHour: endHour,
			DisableClients: true, Engine: eng,
			LoopFlags: core.LoopFlags{NoFastForward: noFF},
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		cs.Sim.Shutdown()
		return cs
	}
	for _, tc := range ffEngines() {
		t.Run(tc.name, func(t *testing.T) {
			ref := run(tc.mk(), true)
			got := run(tc.mk(), false)
			if st := ref.Sim.Stats(); st.Jumps != 0 || st.SkippedTicks != 0 {
				t.Fatalf("plain loop took %d jumps (%d ticks)", st.Jumps, st.SkippedTicks)
			}
			st := got.Sim.Stats()
			jumps, skipped := st.Jumps, st.SkippedTicks
			if skipped < 1000 {
				t.Errorf("fast-forward run skipped only %d ticks in %d jumps; the overnight window should jump heavily", skipped, jumps)
			}
			if r, g := ref.Sim.CompletedOps(), got.Sim.CompletedOps(); r != g {
				t.Errorf("completed ops: %d vs %d", r, g)
			}
			sameResponses(t, ref.Sim.Responses, got.Sim.Responses)
			sameCollector(t, ref.Sim.Collector, got.Sim.Collector)
			for _, master := range ref.Masters {
				sameSeries(t, "sync-durations", &ref.Sync[master].Durations, &got.Sync[master].Durations)
				sameSeries(t, "idx-durations", &ref.Idx[master].Durations, &got.Idx[master].Durations)
				sameSeries(t, "idx-backlog", &ref.Idx[master].BacklogMB, &got.Idx[master].BacklogMB)
				for dc, s := range ref.Sync[master].PullMB {
					sameSeries(t, "pull:"+dc, s, got.Sync[master].PullMB[dc])
				}
				for dc, s := range ref.Sync[master].PushMB {
					sameSeries(t, "push:"+dc, s, got.Sync[master].PushMB[dc])
				}
			}
		})
	}
}
