package dispatch

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func TestDispatcherRunsWork(t *testing.T) {
	p := newPool(4)
	defer p.shutdown()
	hits := make([]atomic.Int64, 100)
	p.run(len(hits), func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("item %d ran %d times, want 1", i, got)
		}
	}
}

func TestDispatcherShutdownIdempotent(t *testing.T) {
	p := newPool(1)
	p.shutdown()
	p.shutdown() // must not panic
}

func TestDispatcherSubmitAfterShutdownPanics(t *testing.T) {
	p := newPool(1)
	p.shutdown()
	if msg := panicMessage(func() { p.run(2, func(int) {}) }); !strings.HasPrefix(msg, "dispatch: ") {
		t.Errorf("run after shutdown panicked with %q, want a dispatch: message", msg)
	}
}

func TestNewDispatcherPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewScatterGather(0) did not panic")
		}
	}()
	NewScatterGather(0)
}

// stepCounts sweeps the first n of agents through e and returns how often
// each of all agents was stepped.
func stepCounts(e core.Engine, agents []*fakeAgent, n int) []int64 {
	active := make([]core.Agent, n)
	for i := range active {
		active[i] = agents[i]
	}
	before := make([]int64, len(agents))
	for i, a := range agents {
		before[i] = a.steps.Load()
	}
	e.Sweep(active, func(a core.Agent) { a.(*fakeAgent).steps.Add(1) })
	for i, a := range agents {
		before[i] = a.steps.Load() - before[i]
	}
	return before
}

// TestGatherScatterRound: every Scatter-Gather sweep steps each active
// agent exactly once before it returns, round after round.
func TestGatherScatterRound(t *testing.T) {
	e := NewScatterGather(4)
	defer e.Shutdown()
	agents := make([]*fakeAgent, 50)
	for i := range agents {
		agents[i] = &fakeAgent{}
	}
	for round := 0; round < 3; round++ {
		for i, got := range stepCounts(e, agents, len(agents)) {
			if got != 1 {
				t.Fatalf("round %d: agent %d stepped %d times, want 1", round, i, got)
			}
		}
	}
}

// TestGatherReuseWithReset drives one engine through many sweeps of
// shrinking width — the per-tick pattern of the reference loop's active
// set: the agents in the set step once, the others not at all.
func TestGatherReuseWithReset(t *testing.T) {
	e := NewScatterGather(4)
	defer e.Shutdown()
	agents := make([]*fakeAgent, 40)
	for i := range agents {
		agents[i] = &fakeAgent{}
	}
	for round := 0; round < 5; round++ {
		n := len(agents) - round*7
		for i, got := range stepCounts(e, agents, n) {
			want := int64(0)
			if i < n {
				want = 1
			}
			if got != want {
				t.Fatalf("round %d (width %d): agent %d stepped %d times, want %d", round, n, i, got, want)
			}
		}
	}
}
