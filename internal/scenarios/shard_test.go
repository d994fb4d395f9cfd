package scenarios

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/metrics"
)

// shardCounts is the equivalence matrix of the sharded engine. Counts
// above a scenario's DC population are deliberately included: the core
// runtime tolerates empty shards (the per-DC partition just leaves them
// idle), and only the declarative surfaces reject such configurations.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedEquivalenceValidation pins the sharded engine's determinism
// contract on the validation scenario: every shard count must reproduce
// the sequential production loop's digest — run statistics (including jump
// counts), every response sample and every collector sample, bit for bit.
func TestShardedEquivalenceValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	ref := runValidationWith(t, &core.SequentialEngine{}).Result.Digest()
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			got := runValidationWith(t, dispatch.NewSharded(n)).Result.Digest()
			if got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
	// NoShards A/B: same engine and workers, sharded runtime disabled —
	// the sweep-only fallback must also match the reference bits.
	t.Run("sharded-4-noshards", func(t *testing.T) {
		res, err := RunValidation(ValidationConfig{
			Experiment: 1, Seed: 42, Engine: dispatch.NewSharded(4),
			LaunchFor: 120, RunFor: 150, SteadyStart: 30, SteadyEnd: 120,
			LoopFlags: core.LoopFlags{NoShards: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Result.Digest(); got != ref {
			t.Errorf("NoShards digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
	// NoStretch A/B: sharded runtime with a global barrier on every window —
	// window stretching must not have changed a bit relative to this baseline.
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		res, err := RunValidation(ValidationConfig{
			Experiment: 1, Seed: 42, Engine: dispatch.NewSharded(4),
			LaunchFor: 120, RunFor: 150, SteadyStart: 30, SteadyEnd: 120,
			LoopFlags: core.LoopFlags{NoStretch: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Result.Digest(); got != ref {
			t.Errorf("NoStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
}

// TestShardedEquivalenceConsolidation covers the seven-DC consolidation
// platform — the scenario where the per-DC partition genuinely spreads
// agents across shards and cross-DC cascades cross shard boundaries. At
// night (03-04 GMT, a tenth of the users) no span clears the grain gate and
// every window runs inline; the peak-hour leg is the one scenario-level
// check of the gate's production setting on the platform the benchmark
// times. What the lanes do on this platform once the gate opens is pinned
// by internal/core's scenario_test.go.
func TestShardedEquivalenceConsolidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(eng core.Engine, noStretch bool) string {
		t.Helper()
		cs, err := NewConsolidation(CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4, Engine: eng,
			LoopFlags: core.LoopFlags{NoStretch: noStretch},
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		return cs.Result.Digest()
	}
	ref := run(&core.SequentialEngine{}, false)
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			if got := run(dispatch.NewSharded(n), false); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		if got := run(dispatch.NewSharded(4), true); got != ref {
			t.Errorf("NoStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
	t.Run("peak-hour-sharded-2", func(t *testing.T) {
		peak := func(eng core.Engine) (string, core.RunStats) {
			cs, err := NewConsolidation(CaseConfig{Step: 0.01, Seed: 7, Scale: 1, StartHour: 13, EndHour: 14, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			// 150 simulated seconds, not the hour: harvest by hand.
			cs.Sim.RunFor(150)
			cs.Sim.Shutdown()
			res := &experiment.Result{Stats: cs.Sim.Stats(), Responses: cs.Sim.Responses, Series: map[string]*metrics.Series{}}
			for _, k := range cs.Sim.Collector.Keys() {
				res.Series[k] = cs.Sim.Collector.Series(k)
			}
			return res.Digest(), res.Stats
		}
		seq, _ := peak(nil)
		got, st := peak(dispatch.NewSharded(2))
		if got != seq {
			t.Errorf("peak-hour digest diverged from sequential loop:\n%s\n%s", seq, got)
		}
		if st.WindowsInline == 0 {
			t.Errorf("no window ran inline at the peak hour (barriers %d): the default gate is not engaged", st.Barriers)
		}
	})
}

// TestShardedEquivalenceDayNight covers the thinned day-night client
// workload: thinning changes the RNG draw sequence relative to per-tick
// polling but is engine-independent, so sharded digests must still match
// the sequential run under identical flags.
func TestShardedEquivalenceDayNight(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(eng core.Engine, noStretch bool) string {
		t.Helper()
		res, err := RunDayNight(DayNightConfig{Seed: 42, Hours: 6, Engine: eng, LoopFlags: core.LoopFlags{NoStretch: noStretch}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Result.Digest()
	}
	ref := run(&core.SequentialEngine{}, false)
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			if got := run(dispatch.NewSharded(n), false); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
		// The day-night scenario is where stretching bites hardest, so the
		// NoStretch baseline runs at every shard count, not just one.
		t.Run(fmt.Sprintf("sharded-%d-nostretch", n), func(t *testing.T) {
			if got := run(dispatch.NewSharded(n), true); got != ref {
				t.Errorf("NoStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
}

// TestShardedEquivalenceChaos pins the barrier behavior of fault ticks:
// the fault controller polls in the sequential phase of the exact window
// landing on its transition tick, so injections and recoveries land at
// their scheduled instants under every shard count, and the whole faulted
// run stays bit-identical to the sequential loop.
func TestShardedEquivalenceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(extra ...experiment.Option) string {
		t.Helper()
		e, err := ChaosExperiment(extra...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		ir := res.Faults.Injections[0]
		if ir.InjectedAt != 120 || ir.RecoveredAt != 240 {
			t.Fatalf("fault transitions at %v/%v, want 120/240 — a shard window crossed a fault tick",
				ir.InjectedAt, ir.RecoveredAt)
		}
		return res.Digest()
	}
	ref := run()
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			n := n
			got := run(experiment.WithEngine(func() core.Engine { return dispatch.NewSharded(n) }))
			if got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		got := run(
			experiment.WithEngine(func() core.Engine { return dispatch.NewSharded(4) }),
			experiment.WithLoopFlags(experiment.LoopFlags{NoStretch: true}),
		)
		if got != ref {
			t.Errorf("NoStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
}
