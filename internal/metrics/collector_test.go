package metrics

import (
	"fmt"
	"slices"
	"testing"
)

// constProbe samples v in every window.
func constProbe(key string, v float64) Probe {
	return Probe{Key: key, Sample: SampleFunc(func(float64) float64 { return v })}
}

// TestCollectorSharesOneTimeAxis pins the collector's storage: every series'
// T views one time axis, a late probe's view starts at the snapshot after
// its registration, and no view can be appended into the axis.
func TestCollectorSharesOneTimeAxis(t *testing.T) {
	c := NewCollector()
	for i := range 3 {
		c.Register(constProbe(fmt.Sprint("early", i), float64(i)))
	}
	check := func(when string) {
		t.Helper()
		for _, k := range c.Keys() {
			s := c.MustSeries(k)
			if len(s.T) != len(s.V) {
				t.Fatalf("%s: %s has %d time stamps and %d values", when, k, len(s.T), len(s.V))
			}
			if cap(s.T) != len(s.T) {
				t.Fatalf("%s: %s time view has cap %d beyond its len %d", when, k, cap(s.T), len(s.T))
			}
		}
	}
	early := []*Series{c.MustSeries("early0"), c.MustSeries("early1"), c.MustSeries("early2")}
	aliased := func(when string) {
		t.Helper()
		for _, s := range early[1:] {
			if &s.T[0] != &early[0].T[0] {
				t.Fatalf("%s: %s and %s do not share one time axis", when, s.Name, early[0].Name)
			}
		}
	}

	const k = 3
	for i := 1; i <= k; i++ {
		c.Snapshot(float64(i))
		check(fmt.Sprint("snapshot ", i))
		aliased(fmt.Sprint("snapshot ", i))
	}
	c.Register(constProbe("late", 9))
	late := c.MustSeries("late")
	if late.Len() != 0 {
		t.Fatalf("late probe has %d samples before its first snapshot", late.Len())
	}
	c.Reserve(4)
	check("reserve")
	aliased("reserve")
	for i := k + 1; i <= k+3; i++ {
		c.Snapshot(float64(i))
		check(fmt.Sprint("snapshot ", i))
		aliased(fmt.Sprint("snapshot ", i))
	}
	if !slices.Equal(late.T, []float64{4, 5, 6}) || !slices.Equal(late.V, []float64{9, 9, 9}) {
		t.Fatalf("late series = T %v V %v, want T [4 5 6] V [9 9 9]", late.T, late.V)
	}
	if &late.T[0] != &early[0].T[k] {
		t.Fatal("late series does not view the shared axis from snapshot k+1")
	}

	// A stray Add to a copy of a collector series reallocates its T; the
	// axis, and every series viewing it, keeps the collector's instants.
	stray := *early[0]
	stray.Add(6.5, 0)
	if &stray.T[0] == &early[0].T[0] {
		t.Fatal("Add to a collector series wrote into the shared axis")
	}
	c.Snapshot(7)
	check("after stray Add")
	if got := early[1].T[len(early[1].T)-1]; got != 7 {
		t.Fatalf("axis records %v at the last snapshot, want 7", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("out-of-order Snapshot did not panic")
		}
	}()
	c.Snapshot(6)
}

// TestSnapshotAllocFreeAfterReserve: once Reserve made room, a snapshot of
// many probes allocates nothing.
func TestSnapshotAllocFreeAfterReserve(t *testing.T) {
	c := NewCollector()
	for i := range 16 {
		c.Register(constProbe(fmt.Sprint("p", i), float64(i)))
	}
	const runs = 100
	c.Reserve(runs + 1) // AllocsPerRun makes one warm-up call
	now := 0.0
	if a := testing.AllocsPerRun(runs, func() {
		now++
		c.Snapshot(now)
	}); a != 0 {
		t.Errorf("Snapshot after Reserve: %v allocs, want 0", a)
	}
}

// BenchmarkCollectorSnapshot measures one snapshot of 16 probes as a run
// takes it: each collector reserves one simulated day of one-minute
// snapshots up front, fills it, and is replaced by a fresh one.
func BenchmarkCollectorSnapshot(b *testing.B) {
	const probes, day = 16, 1440
	fresh := func() *Collector {
		c := NewCollector()
		for i := range probes {
			c.Register(constProbe(fmt.Sprint("p", i), float64(i)))
		}
		c.Reserve(day)
		return c
	}
	c := fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i > 0 && i%day == 0 {
			c = fresh()
		}
		c.Snapshot(float64(i%day+1) * 60)
	}
}

// TestReserveOneBlock: one Reserve that has to move the time axis and every
// series allocates the axis and one block for all the series, however many
// probes there are; each series keeps its samples and gets room for the
// snapshots asked for, capped at its own capacity, so an append to one V
// from outside reallocates it instead of writing into the next series.
func TestReserveOneBlock(t *testing.T) {
	for _, k := range []int{1, 16, 256} {
		c := NewCollector()
		for i := range k {
			c.Register(constProbe(fmt.Sprint("p", i), float64(i)))
		}
		c.Snapshot(1)
		n := 1
		// Each run asks for twice the room of the last, so every call moves
		// every series.
		if got := testing.AllocsPerRun(8, func() {
			n *= 2
			c.Reserve(n)
		}); got != 2 {
			t.Errorf("Reserve over %d probes: %v allocs, want 2", k, got)
		}
		for i := range k {
			s := c.MustSeries(fmt.Sprint("p", i))
			if len(s.V) != 1 || s.V[0] != float64(i) || cap(s.V)-len(s.V) < n {
				t.Fatalf("%d probes: series %d holds %v with room for %d, want [%d] with room for %d",
					k, i, s.V, cap(s.V)-len(s.V), i, n)
			}
		}
		if k == 1 {
			continue
		}
		// Filling one series' whole capacity leaves the next one's samples.
		first, second := c.MustSeries("p0"), c.MustSeries("p1")
		for i, all := 0, first.V[:cap(first.V)]; i < len(all); i++ {
			all[i] = -1
		}
		if second.V[0] != 1 {
			t.Fatalf("%d probes: one series' capacity runs into the next", k)
		}
	}
}
