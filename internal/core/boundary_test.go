package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// TestNextCollectBoundary pins the one shared definition of the collector
// boundary: the first snapshot tick strictly after now. Standing exactly on
// a boundary must yield the NEXT boundary — that tick's snapshot has
// already been taken by the window or span that ended there — which is the
// property the span scheduler and both jump sizers rely on to neither
// swallow nor duplicate a snapshot.
func TestNextCollectBoundary(t *testing.T) {
	cases := []struct{ now, every, want simtime.Tick }{
		{0, 100, 100},
		{1, 100, 100},
		{99, 100, 100},
		{100, 100, 200}, // exactly on a boundary: a full period ahead
		{101, 100, 200},
		{199, 100, 200},
		{200, 100, 300},
		{0, 1, 1},
		{7, 1, 8},
		{599, 600, 600},
		{600, 600, 1200},
	}
	for _, c := range cases {
		if got := nextCollectBoundary(c.now, c.every); got != c.want {
			t.Errorf("nextCollectBoundary(%d, %d) = %d, want %d", c.now, c.every, got, c.want)
		}
	}
}

// spanTestRunner is a minimal in-package ShardRunner so core tests can
// drive the sharded runtime without importing internal/dispatch (which
// imports core).
type spanTestRunner struct{ n int }

func (e *spanTestRunner) Bind([]Agent) {}
func (e *spanTestRunner) Sweep(active []Agent, fn func(Agent)) {
	for _, a := range active {
		fn(a)
	}
}
func (e *spanTestRunner) Shutdown()       {}
func (e *spanTestRunner) ShardCount() int { return e.n }
func (e *spanTestRunner) RunShards(fn func(shard int)) {
	var wg sync.WaitGroup
	for w := 0; w < e.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// TestSpanBoundaryExactSnapshot pins the boundary-exact snapshot contract
// of stretched spans: a run whose windows all execute inside spans must
// snapshot each collector boundary exactly once, at exactly the boundary
// instant — a span starting on a boundary must not re-snapshot it, and a
// span ending on one must not skip it. The sequential loop over the same
// configuration is the reference.
func TestSpanBoundaryExactSnapshot(t *testing.T) {
	const (
		step    = 0.01
		every   = 50 // boundary every 0.5 s
		seconds = 5  // 10 boundaries
	)
	run := func(eng Engine, sharded bool) (times []float64, stretched uint64) {
		t.Helper()
		s := NewSimulation(Config{Step: step, CollectEvery: every, Seed: 1, Engine: eng})
		defer s.Shutdown()
		newTestQueueAgent(s, "cpu-a", 2, 1e9)
		newTestQueueAgent(s, "cpu-b", 2, 1e9)
		if sharded {
			s.sh.grain = 0 // two idle agents: only a forced gate stretches them
			s.SetDCShards(map[string]int{"A": 0})
			// A parked lane source: spans need a lane-confined source no
			// more than the real scenarios do, but registering one proves
			// the span path tolerates a fully dormant lane.
			s.AddLaneSource(parkedSource{}, "A")
		}
		snaps := 0
		s.Collector.Register(metrics.Probe{Key: "beat", Sample: func(window float64) float64 {
			snaps++
			return float64(snaps)
		}})
		s.RunFor(seconds)
		series := s.Collector.MustSeries("beat")
		return series.T, s.Stats().WindowsStretched
	}

	ref, _ := run(&SequentialEngine{}, false)
	got, stretched := run(&spanTestRunner{n: 2}, true)

	if stretched == 0 {
		t.Fatal("no window ran inside a stretched span; the boundary property was never exercised")
	}
	if want := int(seconds / (step * every)); len(ref) != want {
		t.Fatalf("sequential reference took %d snapshots, want %d", len(ref), want)
	}
	if len(got) != len(ref) {
		t.Fatalf("stretched run took %d snapshots, sequential took %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("snapshot %d at %v s under spans, %v s sequentially", i, got[i], ref[i])
		}
		if want := float64(i+1) * step * every; math.Abs(ref[i]-want) > 1e-9 {
			t.Errorf("snapshot %d at %v s, want boundary instant %v s", i, ref[i], want)
		}
	}
}

// parkedSource is a lane-confined source that never launches work: NextPoll
// parks it immediately, so it neither bounds spans nor perturbs the run.
type parkedSource struct{}

func (parkedSource) Poll(*Simulation, float64) {}
func (parkedSource) NextPoll(float64) float64  { return math.Inf(1) }
