package dispatch

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Sharded is the conservative-PDES engine: a fixed pool of shard-pinned
// workers that the simulation drives through core.ShardRunner. Each worker
// owns one shard for the engine's lifetime, so every stretched span the
// simulation forks executes a shard's lane — its agents, flows and sources
// — on the same goroutine, keeping their queue state cache-warm and
// race-free without per-agent locking. Between spans the simulation runs
// sequentially; the RunShards barrier is the synchronization point of the
// PDES recipe. Whether a span is worth a barrier is the simulation's
// decision (core's grain gate): RunShards forks whatever it is handed.
//
// The engine also serves the plain Engine interface (the reference loop,
// LoopFlags.NoShards A/B runs) by chunking Sweep calls across the workers in
// contiguous ascending-ID blocks — deterministic because sweep callbacks
// only touch per-agent state.
type Sharded struct {
	shards int
	jobs   []chan func(int)
	wg     sync.WaitGroup
	closed atomic.Bool
	// failed holds the first panic a worker recovered during the barrier in
	// flight; RunShards re-raises it on its caller's goroutine.
	failed atomic.Pointer[ShardPanic]
}

// ShardPanic is the value RunShards (and Sweep) panic with when fn panicked
// on a shard worker: the shard, the original panic value and the worker's
// stack where it failed — the caller's own stack only shows the barrier. It
// is an error, and unwraps to Value when that is one, so errors.As/Is still
// reach what the worker raised.
type ShardPanic struct {
	Shard int
	Value any
	Stack []byte
}

func (p *ShardPanic) Error() string {
	return fmt.Sprintf("dispatch: shard %d panicked: %v", p.Shard, p.Value)
}

func (p *ShardPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
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
		e.run(i, fn)
	}
}

// run executes one shard's share of a barrier. A panic in fn must not die
// on the worker goroutine, where no caller can recover it and the process
// exits: the worker keeps the first one, finishes the barrier, and
// RunShards re-raises it where the simulation's caller can see it.
func (e *Sharded) run(i int, fn func(int)) {
	defer e.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			e.failed.CompareAndSwap(nil, &ShardPanic{Shard: i, Value: r, Stack: debug.Stack()})
		}
	}()
	fn(i)
}

// ShardCount reports the number of shards.
func (e *Sharded) ShardCount() int { return e.shards }

// RunShards runs fn(shard) once per shard concurrently and waits for all
// of them — the barrier of the conservative synchronization protocol. If fn
// panicked on any shard, RunShards panics after the barrier with the first
// such panic, as a *ShardPanic.
func (e *Sharded) RunShards(fn func(shard int)) {
	e.mustBeOpen()
	if e.shards == 1 {
		fn(0)
		return
	}
	e.wg.Add(e.shards)
	for i := range e.jobs {
		e.jobs[i] <- fn
	}
	e.wg.Wait()
	if p := e.failed.Swap(nil); p != nil {
		panic(p)
	}
}

func (e *Sharded) mustBeOpen() {
	if e.closed.Load() {
		panic("dispatch: sharded engine used after Shutdown")
	}
}

// Bind is a no-op: shard ownership lives in the simulation's assignment
// map, not in per-agent engine state.
func (e *Sharded) Bind(agents []core.Agent) {}

// Sweep applies fn to the active agents by splitting them into one
// contiguous block per shard. Blocks preserve ascending-ID order and fn
// only touches per-agent state, so results are independent of the
// interleaving. A sweep of fewer agents than shards — the common one-agent
// window of the reference loop and of NoShards A/B runs — runs on the caller
// rather than pay a barrier that leaves workers empty-handed.
func (e *Sharded) Sweep(active []core.Agent, fn func(core.Agent)) {
	n := len(active)
	if n < e.shards {
		e.mustBeOpen()
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
// afterwards — RunShards and Sweep then panic.
func (e *Sharded) Shutdown() {
	if e.closed.CompareAndSwap(false, true) {
		for i := range e.jobs {
			close(e.jobs[i])
		}
	}
}

var _ core.ShardRunner = (*Sharded)(nil)
