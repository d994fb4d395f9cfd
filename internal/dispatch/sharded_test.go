package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestEnginesUseAfterShutdown: the Chapter-4 engines report a sweep on a
// stopped pool the same way.
func TestEnginesUseAfterShutdown(t *testing.T) {
	for name, e := range map[string]core.Engine{
		"scatter-gather": NewScatterGather(2),
		"h-dispatch":     NewHDispatch(2, 4),
	} {
		e.Shutdown()
		sweep := func() { e.Sweep([]core.Agent{&fakeAgent{}}, func(core.Agent) {}) }
		if msg := panicMessage(sweep); !strings.HasPrefix(msg, "dispatch: ") {
			t.Errorf("%s: Sweep after Shutdown panicked with %q, want a dispatch: message", name, msg)
		}
	}
}

// TestShutdownStopsWorkers: every engine's workers start, and exit on
// Shutdown, so an engine dropped after Shutdown leaves no goroutine behind.
// It counts only the workers it started — goroutines in the pool's worker
// function that carry this test's profiler label, which they inherit from
// the goroutine that made the engines — so workers of other tests' engines
// that are still winding down, and any other goroutine of the process,
// cannot move the count.
func TestShutdownStopsWorkers(t *testing.T) {
	const label = "TestShutdownStopsWorkers"
	var engines []core.Engine
	pprof.Do(context.Background(), pprof.Labels("test", label), func(context.Context) {
		engines = []core.Engine{NewScatterGather(3), NewHDispatch(3, 0), NewSharded(3)}
	})
	awaitWorkers(t, label, 9, "with three 3-worker engines")
	for _, e := range engines {
		e.Shutdown()
	}
	awaitWorkers(t, label, 0, "after Shutdown")
}

// awaitWorkers waits up to 5 s for exactly want labelled workers to be in
// the pool's worker function. A goroutine that has not run yet shows no
// frame in the profile, so the count of a fresh pool rises to its size.
func awaitWorkers(t *testing.T, label string, want int, when string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := poolWorkers(t, label)
		if got == want {
			return
		}
		if got > want && want > 0 || time.Now().After(deadline) {
			t.Fatalf("%d workers running %s, want %d", got, when, want)
		}
	}
}

// poolWorkers returns how many goroutines carrying the profiler label
// test=label are in the pool's worker function, read from the goroutine
// profile: one record per distinct stack and label set, each opening with
// its goroutine count.
func poolWorkers(t *testing.T, label string) int {
	t.Helper()
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rec := range strings.Split(b.String(), "\n\n") {
		if !strings.Contains(rec, `"test":"`+label+`"`) || !strings.Contains(rec, "dispatch.(*pool).work") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if count, _, ok := strings.Cut(line, " @ "); ok {
				c, err := strconv.Atoi(count)
				if err != nil {
					t.Fatalf("goroutine profile record %q: %v", line, err)
				}
				n += c
				break
			}
		}
	}
	return n
}
