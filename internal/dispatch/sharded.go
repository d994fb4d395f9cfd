package dispatch

import (
	"fmt"

	"repro/internal/core"
)

// Sharded is a fixed pool of workers behind core.ShardRunner: RunShards
// runs one function on every shard and waits for all of them. It was the
// engine of the sharded span runtime, which was removed after it failed to
// pay on any platform; it is kept because the benchmark harness (bench/)
// times it, and it remains a valid Engine for the reference loop, where
// Sweep chunks the active agents across the workers in contiguous
// ascending-ID blocks — deterministic because sweep callbacks only touch
// per-agent state.
type Sharded struct {
	pool   *pool
	shards int
}

// NewSharded creates the engine with one worker per shard. A single shard
// degenerates to inline execution on the calling goroutine.
func NewSharded(shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("dispatch: sharded engine needs >= 1 shard, got %d", shards))
	}
	return &Sharded{pool: newPool(shards), shards: shards}
}

// ShardCount reports the number of shards.
func (e *Sharded) ShardCount() int { return e.shards }

// RunShards runs fn(shard) once per shard concurrently and waits for all
// of them. If fn panicked on any shard, RunShards panics after the barrier
// with the first such panic, as a *ShardPanic.
func (e *Sharded) RunShards(fn func(shard int)) { e.pool.run(e.shards, fn) }

// Bind is a no-op: the engine keeps no per-agent state.
func (e *Sharded) Bind(agents []core.Agent) {}

// Sweep applies fn to the active agents by splitting them into one
// contiguous block per shard. Blocks preserve ascending-ID order and fn
// only touches per-agent state, so results are independent of the
// interleaving. A sweep of fewer agents than shards runs on the caller
// rather than pay a barrier that leaves workers empty-handed.
func (e *Sharded) Sweep(active []core.Agent, fn func(core.Agent)) {
	n, k := len(active), e.shards
	if n < k {
		k = 1
	}
	e.pool.run(k, func(c int) {
		for _, a := range active[c*n/k : (c+1)*n/k] {
			fn(a)
		}
	})
}

// Shutdown stops the workers. Idempotent; the engine must not be used
// afterwards — RunShards and Sweep then panic.
func (e *Sharded) Shutdown() { e.pool.shutdown() }

var _ core.ShardRunner = (*Sharded)(nil)
