package main

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// engineCounters aggregates what the timing decorators observe at the
// pluggable core.Engine boundary. Within a single simulation every call
// comes from the simulation goroutine; the fields are atomic because the
// campaign's points, running on several workers, fold their own counters
// into the iteration's when they shut down.
type engineCounters struct {
	sweepNs       atomic.Int64 // host time inside Engine.Sweep
	sweeps        atomic.Int64
	agentsStepped atomic.Int64 // sum of len(active) over sweeps

	runShardsNs    atomic.Int64 // host time inside ShardRunner.RunShards
	runShardsCalls atomic.Int64
	shardBusyNs    atomic.Int64 // summed over shards: time inside fn(shard)

	// Lifecycle marks, host nanoseconds since the decorator's epoch. The
	// first Bind is the first tick of the run (the simulation binds lazily),
	// Shutdown follows the harvest in every experiment.Run call, so the two
	// split a whole-call workload into compile / execute / post-processing
	// without touching the simulator.
	epoch        time.Time
	firstBindNs  atomic.Int64
	shutdownAtNs atomic.Int64
	shutdownNs   atomic.Int64 // time inside Shutdown
}

func newEngineCounters() *engineCounters {
	c := &engineCounters{epoch: time.Now()}
	c.firstBindNs.Store(-1)
	c.shutdownAtNs.Store(-1)
	return c
}

func (c *engineCounters) since() int64 { return int64(time.Since(c.epoch)) }

// fold adds another set's additive counters into c.
func (c *engineCounters) fold(from *engineCounters) {
	c.sweepNs.Add(from.sweepNs.Load())
	c.sweeps.Add(from.sweeps.Load())
	c.agentsStepped.Add(from.agentsStepped.Load())
	c.shutdownNs.Add(from.shutdownNs.Load())
}

// timedEngine wraps any core.Engine and times its Sweep calls.
type timedEngine struct {
	inner core.Engine
	c     *engineCounters
}

func (e *timedEngine) Bind(agents []core.Agent) {
	e.c.firstBindNs.CompareAndSwap(-1, e.c.since())
	e.inner.Bind(agents)
}

func (e *timedEngine) Sweep(active []core.Agent, fn func(core.Agent)) {
	t0 := time.Now()
	e.inner.Sweep(active, fn)
	e.c.sweepNs.Add(int64(time.Since(t0)))
	e.c.sweeps.Add(1)
	e.c.agentsStepped.Add(int64(len(active)))
}

func (e *timedEngine) Shutdown() {
	t0 := time.Now()
	e.c.shutdownAtNs.Store(e.c.since())
	e.inner.Shutdown()
	e.c.shutdownNs.Add(int64(time.Since(t0)))
}

// timedSharded additionally exposes the ShardRunner capability, so the
// simulation engages the sharded runtime exactly as it does on the bare
// engine, and times each barrier round trip and each shard's share of it.
type timedSharded struct {
	timedEngine
	runner core.ShardRunner
	// busy[w] is written only by shard w's worker inside RunShards and read
	// after the barrier; padded so neighbouring shards do not share a line.
	busy []paddedNs
	// cur is the function of the RunShards call in flight; wrapped is built
	// once so a barrier allocates nothing in the decorator.
	cur     func(shard int)
	wrapped func(shard int)
}

type paddedNs struct {
	ns int64
	_  [56]byte
}

func newTimedSharded(r core.ShardRunner, c *engineCounters) *timedSharded {
	e := &timedSharded{
		timedEngine: timedEngine{inner: r, c: c},
		runner:      r,
		busy:        make([]paddedNs, r.ShardCount()),
	}
	e.wrapped = func(w int) {
		s := time.Now()
		e.cur(w)
		e.busy[w].ns += int64(time.Since(s))
	}
	return e
}

func (e *timedSharded) ShardCount() int { return e.runner.ShardCount() }

func (e *timedSharded) RunShards(fn func(shard int)) {
	t0 := time.Now()
	e.cur = fn
	e.runner.RunShards(e.wrapped)
	e.c.runShardsNs.Add(int64(time.Since(t0)))
	e.c.runShardsCalls.Add(1)
}

// flush folds the per-shard busy time into the shared counters; call it
// after the simulation stopped issuing RunShards calls.
func (e *timedSharded) flush() {
	for w := range e.busy {
		e.c.shardBusyNs.Add(e.busy[w].ns)
		e.busy[w].ns = 0
	}
}

var (
	_ core.Engine      = (*timedEngine)(nil)
	_ core.ShardRunner = (*timedSharded)(nil)
)
