package dispatch

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func TestNewShardedPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSharded(0) did not panic")
		}
	}()
	NewSharded(0)
}

// TestShardedRunShardsCoversEveryShard checks the barrier contract: every
// shard index runs exactly once per RunShards call, and the call does not
// return until all of them finished.
func TestShardedRunShardsCoversEveryShard(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		e := NewSharded(shards)
		hits := make([]atomic.Int64, shards)
		const rounds = 50
		for r := 0; r < rounds; r++ {
			e.RunShards(func(w int) { hits[w].Add(1) })
		}
		for w := range hits {
			if got := hits[w].Load(); got != rounds {
				t.Errorf("shards=%d: shard %d ran %d times, want %d", shards, w, got, rounds)
			}
		}
		e.Shutdown()
	}
}

// TestShardedSweepChunksAreAPartition checks the plain-Engine fallback:
// Sweep must apply fn to every active agent exactly once, for active-set
// sizes around the contiguous-block arithmetic's edge cases.
func TestShardedSweepChunksAreAPartition(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		e := NewSharded(shards)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 17, 100} {
			agents := make([]*fakeAgent, n)
			active := make([]core.Agent, n)
			for i := range agents {
				agents[i] = &fakeAgent{}
				active[i] = agents[i]
			}
			e.Sweep(active, func(a core.Agent) { a.(*fakeAgent).steps.Add(1) })
			for i, a := range agents {
				if got := a.steps.Load(); got != 1 {
					t.Fatalf("shards=%d n=%d: agent %d stepped %d times, want 1", shards, n, i, got)
				}
			}
		}
		e.Shutdown()
	}
}

// TestShardedShutdownIdempotent double-closes must not panic, and a
// 1-shard engine (no workers) must shut down cleanly too.
func TestShardedShutdownIdempotent(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e := NewSharded(shards)
		e.RunShards(func(int) {})
		e.Shutdown()
		e.Shutdown()
	}
}

// panicMessage runs f and returns the message it panicked with ("" if it
// returned normally).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestShardedWorkerPanicReachesCaller pins the failure contract of a
// barrier: a panic inside fn on a worker goroutine — which nothing could
// recover, so it used to kill the process — surfaces on the goroutine that
// called RunShards, names the shard, waits for the other shards first, and
// leaves the engine usable for the next barrier.
func TestShardedWorkerPanicReachesCaller(t *testing.T) {
	e := NewSharded(4)
	defer e.Shutdown()
	var finished atomic.Int64
	msg := panicMessage(func() {
		e.RunShards(func(w int) {
			if w == 2 {
				panic("boom")
			}
			finished.Add(1)
		})
	})
	if !strings.HasPrefix(msg, "dispatch: shard 2 panicked") || !strings.Contains(msg, "boom") {
		t.Errorf("RunShards panicked with %q, want the shard and the worker's value named", msg)
	}
	if got := finished.Load(); got != 3 {
		t.Errorf("%d healthy shards finished before the re-panic, want 3", got)
	}
	var ran atomic.Int64
	if msg := panicMessage(func() { e.RunShards(func(int) { ran.Add(1) }) }); msg != "" || ran.Load() != 4 {
		t.Errorf("barrier after a recovered panic: panic %q, %d shards ran; want a clean 4-shard barrier", msg, ran.Load())
	}
	// Sweep forks through the same barrier.
	msg = panicMessage(func() {
		e.Sweep(make([]core.Agent, 8), func(core.Agent) { panic("sweep boom") })
	})
	if !strings.HasPrefix(msg, "dispatch: shard ") || !strings.Contains(msg, "sweep boom") {
		t.Errorf("Sweep panicked with %q, want a dispatch: shard panic", msg)
	}
}

// TestShardPanicKeepsValueAndStack: the re-panic carries the worker's
// original value — an error stays reachable through errors.Is/As — and the
// worker's own stack, which is where the failure is; the stack at the
// recover site only shows the barrier.
func TestShardPanicKeepsValueAndStack(t *testing.T) {
	e := NewSharded(2)
	defer e.Shutdown()
	errBoom := errors.New("boom")
	var got any
	func() {
		defer func() { got = recover() }()
		e.RunShards(failOnShardOne(errBoom))
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("RunShards panicked with %T %v, want an error", got, got)
	}
	var sp *ShardPanic
	if !errors.As(err, &sp) || sp.Shard != 1 || sp.Value != any(errBoom) {
		t.Fatalf("panic value %#v, want a *ShardPanic for shard 1 wrapping the worker's value", err)
	}
	if !errors.Is(err, errBoom) {
		t.Error("errors.Is does not reach the worker's error through the ShardPanic")
	}
	if !strings.Contains(string(sp.Stack), "failOnShardOne") {
		t.Errorf("ShardPanic.Stack does not show where the shard failed:\n%s", sp.Stack)
	}
}

func failOnShardOne(err error) func(int) {
	return func(w int) {
		if w == 1 {
			panic(err)
		}
	}
}

// TestShardedUseAfterShutdown: a barrier on a stopped engine is a caller
// bug reported as one, not as the runtime's "send on closed channel".
func TestShardedUseAfterShutdown(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e := NewSharded(shards)
		e.Shutdown()
		for name, use := range map[string]func(){
			"RunShards": func() { e.RunShards(func(int) {}) },
			"Sweep":     func() { e.Sweep([]core.Agent{&fakeAgent{}}, func(core.Agent) {}) },
		} {
			if msg := panicMessage(use); !strings.HasPrefix(msg, "dispatch: ") {
				t.Errorf("shards=%d: %s after Shutdown panicked with %q, want a dispatch: message", shards, name, msg)
			}
		}
	}
}
