// Package dispatch implements the two parallelization mechanisms evaluated
// in Chapter 4 of the thesis as core.Engine implementations. They differ
// only in grain, so both run on one fork-join worker pool:
//
//   - HDispatch (§4.3.5, after Holmes et al.): the workers pull Agent Sets
//     (default 64 agents) from the pool's queue until it drains, amortizing
//     the per-item coordination cost. Table 4.2 shows the resulting
//     multicore speedup.
//
//   - ScatterGather (§4.3.4): one work item — the thesis' active message —
//     per active agent, which is H-Dispatch at set size 1. The per-item cost
//     is of the order of the tiny per-agent work, which is why Table 4.1
//     shows no speedup — a behaviour this reproduces.
//
// Both parallelize the sweep of the reference loop (core's
// LoopFlags.NoFastForward), where every tick steps every active agent — the
// loop Chapter 4 measured. The production window loop steps a handful of
// agents per window itself and never calls an engine. Sharded, a third
// caller of the pool with one item per shard, is kept only for the
// benchmark harness (bench/).
package dispatch

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// pool is a fixed set of worker goroutines behind a fork-join call: run
// hands it n work items and returns when all of them have run. Workers pull
// item indices from one shared queue, so an item goes to whichever worker
// is free, and an idle worker blocks on the queue. The pool serves one run
// at a time.
type pool struct {
	queue  chan int
	fn     func(int) // the item function of the run in flight
	wg     sync.WaitGroup
	closed atomic.Bool
	// failed holds the first panic an item raised during the run in flight;
	// run re-raises it on its caller's goroutine.
	failed atomic.Pointer[ShardPanic]
}

func newPool(workers int) *pool {
	p := &pool{queue: make(chan int, 1024)}
	for range workers {
		go p.work()
	}
	return p
}

// work is one worker: it runs the items it pulls from the queue until
// shutdown closes it.
func (p *pool) work() {
	for i := range p.queue {
		p.item(i)
	}
}

// item runs one work item. A panic must not die on a worker goroutine,
// where no caller can recover it and the process exits: the pool keeps the
// first one, finishes the run, and run re-raises it where the caller can
// see it.
func (p *pool) item(i int) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.failed.CompareAndSwap(nil, &ShardPanic{Shard: i, Value: r, Stack: debug.Stack()})
		}
	}()
	p.fn(i)
}

// run calls fn(i) for every i in [0, n) on the workers and waits for all of
// them; a run of one item has nothing to share and stays on the caller. If
// an item panicked, run panics after the others finished with the first
// such panic, as a *ShardPanic.
func (p *pool) run(n int, fn func(i int)) {
	if p.closed.Load() {
		panic("dispatch: engine used after Shutdown")
	}
	p.fn = fn
	p.wg.Add(n)
	if n == 1 {
		p.item(0)
	} else {
		for i := range n {
			p.queue <- i
		}
	}
	p.wg.Wait()
	if sp := p.failed.Swap(nil); sp != nil {
		panic(sp)
	}
}

// shutdown stops the workers. Idempotent; run panics afterwards.
func (p *pool) shutdown() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.queue)
	}
}

// ShardPanic is the value an engine panics with when a work item panicked:
// the item (the shard for RunShards, the agent set or chunk for a sweep),
// the original panic value and the stack where it failed — the caller's
// own stack only shows the fork-join. It is an error, and unwraps to Value
// when that is one, so errors.As/Is still reach what the item raised.
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
