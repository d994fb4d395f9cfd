package core

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// TestNextCollectBoundary pins the one shared definition of the collector
// boundary: the first snapshot tick strictly after now. Standing exactly on
// a boundary must yield the NEXT boundary — that tick's snapshot has
// already been taken by the window that ended there — which is the property
// the jump sizer relies on to neither swallow nor duplicate a snapshot.
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

// TestSpanBoundaryExactSnapshot pins the boundary-exact snapshot contract
// where the window loop jumps furthest: two idle agents and a parked source
// leave nothing to do, so every window jumps straight onto the next
// collector boundary — and must snapshot each boundary exactly once, at
// exactly the boundary instant: a window starting on a boundary must not
// re-snapshot it, and one ending on it must not skip it. The reference loop
// over the same configuration is the oracle.
func TestSpanBoundaryExactSnapshot(t *testing.T) {
	const (
		step    = 0.01
		every   = 50 // boundary every 0.5 s
		seconds = 5  // 10 boundaries
	)
	run := func(cfg Config) (times []float64, skipped uint64) {
		t.Helper()
		cfg.Step, cfg.CollectEvery, cfg.Seed = step, every, 1
		s := NewSimulation(cfg)
		defer s.Shutdown()
		newTestQueueAgent(s, "cpu-a", 2, 1e9)
		newTestQueueAgent(s, "cpu-b", 2, 1e9)
		s.AddSource(parkedSource{})
		snaps := 0
		s.Collector.Register(metrics.Probe{Key: "beat", Sample: func(window float64) float64 {
			snaps++
			return float64(snaps)
		}})
		s.RunFor(seconds)
		skipped = s.Stats().SkippedTicks
		return s.Collector.MustSeries("beat").T, skipped
	}

	ref, _ := run(Config{LoopFlags: refFlags(true)})
	got, skipped := run(Config{Engine: &chunkRunner{n: 2}})

	if skipped == 0 {
		t.Fatal("the production loop skipped no tick; the boundary property was never exercised")
	}
	if want := int(seconds / (step * every)); len(ref) != want {
		t.Fatalf("reference loop took %d snapshots, want %d", len(ref), want)
	}
	if len(got) != len(ref) {
		t.Fatalf("production loop took %d snapshots, reference loop %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("snapshot %d at %v s on the production loop, %v s on the reference loop", i, got[i], ref[i])
		}
		if want := float64(i+1) * step * every; math.Abs(ref[i]-want) > 1e-9 {
			t.Errorf("snapshot %d at %v s, want boundary instant %v s", i, ref[i], want)
		}
	}
}

// TestRunForReservesAmortised: RunFor reserves collector room for its own
// span, and a caller making many one-period calls must still pay amortised
// growth — O(log n) reallocations of each series, not one per call — and
// record exactly what one RunFor over the whole span records.
func TestRunForReservesAmortised(t *testing.T) {
	const calls = 10000
	run := func(chunked bool) (*Simulation, []int) {
		t.Helper()
		s := NewSimulation(Config{Seed: 1})
		snaps := 0
		for _, key := range []string{"count", "window"} {
			s.Collector.Register(metrics.Probe{Key: key, Sample: func(window float64) float64 {
				snaps++
				return window + float64(snaps)
			}})
		}
		period := float64(s.collectEvery) * s.clock.Step()
		if !chunked {
			s.RunFor(calls * period)
			return s, nil
		}
		reallocs := make([]int, len(s.Collector.Keys()))
		last := make([]*float64, len(reallocs))
		for range calls {
			s.RunFor(period)
			for i, k := range s.Collector.Keys() {
				if v := &s.Collector.MustSeries(k).V[0]; v != last[i] {
					last[i] = v
					reallocs[i]++
				}
			}
		}
		return s, reallocs
	}
	one, _ := run(false)
	many, reallocs := run(true)
	defer one.Shutdown()
	defer many.Shutdown()

	// append's growth factor falls from 2 to about 1.25 past 256 elements,
	// so amortised growth to 10 000 takes about 20 reallocations.
	bound := 2 * int(math.Ceil(math.Log2(calls)))
	for i, k := range many.Collector.Keys() {
		if reallocs[i] > bound {
			t.Errorf("%s: V reallocated %d times over %d RunFor calls, want at most %d", k, reallocs[i], calls, bound)
		}
		got, ref := many.Collector.MustSeries(k), one.Collector.MustSeries(k)
		if ref.Len() != calls {
			t.Fatalf("%s: one RunFor over %d periods took %d snapshots", k, calls, ref.Len())
		}
		sameSeriesBits(t, k, ref, got)
	}
}

// parkedSource never launches work: NextPoll parks it immediately.
type parkedSource struct{}

func (parkedSource) Poll(*Simulation, float64) {}
func (parkedSource) NextPoll(float64) float64  { return math.Inf(1) }
