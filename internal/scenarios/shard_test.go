package scenarios

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/metrics"
)

// dispatch.Sharded on the scenarios. The engine used to drive the sharded
// span runtime; now only the reference loop sweeps through it (its Sweep
// chunks the active agents across the workers), and on the production loop
// its workers sit idle — the configuration bench/'s peak_hour_sharded
// times. Both must reproduce the sequential production loop's digest bit
// for bit. The subtest names date from the runtime: sharded-N runs the
// production loop under N workers, -nostretch the reference loop — a sweep
// through the workers every tick — and -noshards the production loop under
// workers already stopped, so any call into them panics.

// shardCounts is the worker-count matrix of dispatch.Sharded. Counts above
// a scenario's DC population are deliberately included: the chunked sweep
// does not follow data centers.
var shardCounts = []int{1, 2, 4, 8}

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

// stopped is dispatch.NewSharded(n) with its workers already shut down.
func stopped(n int) core.Engine {
	e := dispatch.NewSharded(n)
	e.Shutdown()
	return e
}

// checkUse fails unless the engine saw what its loop may ask: nothing on
// the production loop, sweeps on the reference loop.
func checkUse(t *testing.T, w *watched, ref bool) {
	t.Helper()
	switch {
	case !ref && (w.binds != 0 || w.sweeps != 0):
		t.Errorf("production loop called Bind %d and Sweep %d times, want 0", w.binds, w.sweeps)
	case ref && w.sweeps == 0:
		t.Error("the reference loop never swept through the engine")
	}
}

// TestShardedEquivalenceValidation pins dispatch.Sharded's determinism
// contract on the validation scenario: every worker count must reproduce
// the sequential production loop's digest — run statistics, every response
// sample and every collector sample, bit for bit.
func TestShardedEquivalenceValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(eng core.Engine, flags core.LoopFlags) string {
		t.Helper()
		res, err := RunValidation(ValidationConfig{
			Experiment: 1, Seed: 42, Engine: eng,
			LaunchFor: 120, RunFor: 150, SteadyStart: 30, SteadyEnd: 120,
			LoopFlags: flags,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Result.Digest()
	}
	ref := run(&core.SequentialEngine{}, core.LoopFlags{})
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			eng := sharded(n)
			if got := run(eng, core.LoopFlags{}); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
			checkUse(t, eng, false)
		})
	}
	t.Run("sharded-4-noshards", func(t *testing.T) {
		if got := run(stopped(4), core.LoopFlags{}); got != ref {
			t.Errorf("digest under stopped workers diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		eng := sharded(4)
		if got := run(eng, reference(true)); got != ref {
			t.Errorf("reference-loop digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
		checkUse(t, eng, true)
	})
}

// TestShardedEquivalenceConsolidation covers the seven-DC consolidation
// platform, where cross-DC cascades and WAN hops run between the data
// centers: at night (03-04 GMT, a tenth of the users) at every worker
// count and on the reference loop, and at the peak hour the benchmark's
// peak_hour_sharded times, where the engine's workers must stay idle.
func TestShardedEquivalenceConsolidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(eng core.Engine, flags core.LoopFlags) string {
		t.Helper()
		cs, err := NewConsolidation(CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4, Engine: eng,
			LoopFlags: flags,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		return cs.Result.Digest()
	}
	ref := run(&core.SequentialEngine{}, core.LoopFlags{})
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			eng := sharded(n)
			if got := run(eng, core.LoopFlags{}); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
			checkUse(t, eng, false)
		})
	}
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		eng := sharded(4)
		if got := run(eng, reference(true)); got != ref {
			t.Errorf("reference-loop digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
		checkUse(t, eng, true)
	})
	t.Run("peak-hour-sharded-2", func(t *testing.T) {
		peak := func(eng core.Engine) string {
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
			return res.Digest()
		}
		eng := sharded(2)
		if seq, got := peak(nil), peak(eng); got != seq {
			t.Errorf("peak-hour digest diverged from sequential loop:\n%s\n%s", seq, got)
		}
		checkUse(t, eng, false)
	})
}

// TestShardedEquivalenceDayNight covers the thinned day-night client
// workload: digests under every worker count must match the sequential
// production loop. The reference-loop legs run over the first two hours —
// night floor and the start of the ramp — since the reference loop steps
// every one of the run's ticks.
func TestShardedEquivalenceDayNight(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(eng core.Engine, hours float64, flags core.LoopFlags) string {
		t.Helper()
		res, err := RunDayNight(DayNightConfig{Seed: 42, Hours: hours, Engine: eng, LoopFlags: flags})
		if err != nil {
			t.Fatal(err)
		}
		return res.Result.Digest()
	}
	ref := run(&core.SequentialEngine{}, 6, core.LoopFlags{})
	ref2h := run(&core.SequentialEngine{}, 2, core.LoopFlags{})
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			eng := sharded(n)
			if got := run(eng, 6, core.LoopFlags{}); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
			checkUse(t, eng, false)
		})
		t.Run(fmt.Sprintf("sharded-%d-nostretch", n), func(t *testing.T) {
			eng := sharded(n)
			if got := run(eng, 2, reference(true)); got != ref2h {
				t.Errorf("reference-loop digest diverged from sequential loop:\n%s\n%s", ref2h, got)
			}
			checkUse(t, eng, true)
		})
	}
}

// TestShardedEquivalenceChaos pins the fault ticks under the engine: the
// fault controller polls in the exact window landing on its transition
// tick, so injections and recoveries land at their scheduled instants under
// every worker count and on the reference loop, and the whole faulted run
// stays bit-identical to the sequential loop.
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
			t.Fatalf("fault transitions at %v/%v, want 120/240 — a window crossed a fault tick",
				ir.InjectedAt, ir.RecoveredAt)
		}
		return res.Digest()
	}
	withEngine := func(w *watched) experiment.Option {
		return experiment.WithEngine(func() core.Engine { return w })
	}
	ref := run()
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			eng := sharded(n)
			if got := run(withEngine(eng)); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
			checkUse(t, eng, false)
		})
	}
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		eng := sharded(4)
		got := run(withEngine(eng), experiment.WithLoopFlags(reference(true)))
		if got != ref {
			t.Errorf("reference-loop digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
		checkUse(t, eng, true)
	})
}
