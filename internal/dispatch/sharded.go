package dispatch

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// Sharded is the conservative-PDES engine: a fixed pool of shard-pinned
// workers that the simulation drives through core.ShardRunner. Each worker
// owns one shard for the engine's lifetime, so every parallel phase of a
// window — involved-agent advancement, mailbox application, horizon
// precomputation, a stretched span's lane — executes a shard's agents on
// the same
// goroutine, keeping their queue state cache-warm and race-free without
// per-agent locking. Between phases the simulation runs sequentially; the
// RunShards barrier is the synchronization point of the PDES recipe.
//
// The engine also serves the plain Engine interface (the reference loop,
// LoopFlags.NoShards A/B runs) by chunking Sweep calls across the workers in
// contiguous ascending-ID blocks — deterministic because sweep callbacks
// only touch per-agent state.
type Sharded struct {
	shards int
	jobs   []chan func(int)
	wg     sync.WaitGroup
	once   sync.Once
}

// NewSharded creates the engine with one pinned worker per shard. A single
// shard degenerates to inline execution on the calling goroutine — the
// full sharded runtime (mailboxes, barriers) with zero dispatch overhead,
// which is the sharded:1 leg of the equivalence suite.
func NewSharded(shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("dispatch: sharded engine needs >= 1 shard, got %d", shards))
	}
	e := &Sharded{shards: shards}
	if shards == 1 {
		return e
	}
	e.jobs = make([]chan func(int), shards)
	for i := range e.jobs {
		e.jobs[i] = make(chan func(int), 1)
		go e.worker(i)
	}
	return e
}

func (e *Sharded) worker(i int) {
	for fn := range e.jobs[i] {
		fn(i)
		e.wg.Done()
	}
}

// ShardCount reports the number of shards.
func (e *Sharded) ShardCount() int { return e.shards }

// RunShards runs fn(shard) once per shard concurrently and waits for all
// of them — the barrier of the conservative synchronization protocol.
func (e *Sharded) RunShards(fn func(shard int)) {
	if e.shards == 1 {
		fn(0)
		return
	}
	e.wg.Add(e.shards)
	for i := range e.jobs {
		e.jobs[i] <- fn
	}
	e.wg.Wait()
}

// Bind is a no-op: shard ownership lives in the simulation's assignment
// map, not in per-agent engine state.
func (e *Sharded) Bind(agents []core.Agent) {}

// Sweep applies fn to the active agents by splitting them into one
// contiguous block per shard. Blocks preserve ascending-ID order and fn
// only touches per-agent state, so results are independent of the
// interleaving.
func (e *Sharded) Sweep(active []core.Agent, fn func(core.Agent)) {
	n := len(active)
	if n == 0 {
		return
	}
	if e.shards == 1 || n == 1 {
		for _, a := range active {
			fn(a)
		}
		return
	}
	e.RunShards(func(w int) {
		lo, hi := w*n/e.shards, (w+1)*n/e.shards
		for _, a := range active[lo:hi] {
			fn(a)
		}
	})
}

// Shutdown stops the workers. Idempotent; the engine must not be used
// afterwards.
func (e *Sharded) Shutdown() {
	e.once.Do(func() {
		for i := range e.jobs {
			close(e.jobs[i])
		}
	})
}

var _ core.ShardRunner = (*Sharded)(nil)
