package main

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// The reference kernel is the benchmark's yardstick for the host's speed.
//
// The box the benchmark runs on is a few cores of a shared host, and its speed
// moves by tens of percent, for seconds or for minutes, with what the
// neighbours do: the same binary on the same inputs took 510 ms an iteration
// one quarter of an hour and 1300 ms the next, and where the benchmark is
// checked ten runs of one commit spread 26-33% (IQR over median) while the
// largest bound a metric may have is 25%. So every host time the end-to-end
// metrics are made of is measured next to a fixed piece of work of the
// simulator's kind — a small discrete-event loop that allocates as the
// simulator does: a calendar heap, FCFS queues stepped in floating point, a
// map of operations in flight, a record per operation — run in one slice of
// 25-40 ms between two iterations, at least every 200 ms. An iteration's time
// is divided by the mean of the slices before and after it and multiplied by
// what a slice takes on the reference box when it is quiet: host milliseconds
// at the reference box's quiet speed.
//
// Measured on ten-run sets of one commit (bench/README.md has the numbers):
// where the clock's median iteration time spreads 3-12% on an ordinary
// evening, 19-46% through the host's slow phases and 8-39% beside two looping
// copies of the benchmark, the same runs spread 1-6%, 6-10% and 3-5% against
// the kernel. A kernel that does not allocate tracks the simulator about half
// as well, and process or thread CPU time follows the host's speed as the
// wall clock does, so the kernel allocates and the clock is the wall's.
//
// The kernel lives in bench/ and imports nothing of the repository, so a
// change to the simulator cannot move it. It is not to be tuned: a change to
// it moves every time metric of every workload at once.

const (
	// refEvery is the least host time of iterations between two slices.
	refEvery = 200 * time.Millisecond
	// refShortest is the shortest region measured against the slices.
	refShortest = 10 * time.Millisecond

	refQueues   = 128
	refInFlight = 512
	refTick     = 0.001
)

type refJob struct {
	id        uint64
	remaining float64
}

type refOp struct {
	id     uint64
	stages []float64
	hops   int
}

type refEvent struct {
	due   float64
	queue int
	job   refJob
}

type refCalendar []refEvent

func (c refCalendar) Len() int           { return len(c) }
func (c refCalendar) Less(i, j int) bool { return c[i].due < c[j].due }
func (c refCalendar) Swap(i, j int)      { c[i], c[j] = c[j], c[i] }
func (c *refCalendar) Push(x any)        { *c = append(*c, x.(refEvent)) }
func (c *refCalendar) Pop() any {
	old := *c
	e := old[len(old)-1]
	*c = old[:len(old)-1]
	return e
}

// refKernel is one goroutine's copy of the reference simulation. Its state
// carries over from slice to slice and stays the same size.
type refKernel struct {
	rng    uint64
	now    float64
	queues [refQueues][]refJob
	cal    refCalendar
	ops    map[uint64]*refOp
	nextID uint64
	done   [256]*refOp // the last records, kept reachable
	nDone  int
}

func newRefKernel(seed uint64) *refKernel {
	k := &refKernel{rng: seed*2685821657736338717 + 1, ops: map[uint64]*refOp{}}
	for i := 0; i < refInFlight; i++ {
		k.launch()
	}
	return k
}

func (k *refKernel) rand() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

func (k *refKernel) uniform() float64 { return float64(k.rand()>>11) / (1 << 53) }

// launch starts one operation: a record with its stage demands, registered in
// flight, its first stage due on the calendar after a think time.
func (k *refKernel) launch() {
	k.nextID++
	op := &refOp{id: k.nextID, stages: make([]float64, 6+k.rand()%6)}
	for i := range op.stages {
		op.stages[i] = 0.005 + 0.02*k.uniform()
	}
	k.ops[op.id] = op
	heap.Push(&k.cal, refEvent{due: k.now + 0.05*k.uniform(), queue: int(k.rand() % refQueues), job: refJob{id: op.id, remaining: op.stages[0]}})
}

// step advances the kernel by one tick: due calendar events join their
// queues, every queue serves its head, a finished stage hops to another queue
// through the calendar, a finished operation is recorded and replaced.
func (k *refKernel) step() {
	k.now += refTick
	for len(k.cal) > 0 && k.cal[0].due <= k.now {
		e := heap.Pop(&k.cal).(refEvent)
		k.queues[e.queue] = append(k.queues[e.queue], e.job)
	}
	for q := range k.queues {
		jobs := k.queues[q]
		budget := refTick
		for len(jobs) > 0 && budget > 0 {
			j := &jobs[0]
			served := min(j.remaining, budget)
			j.remaining -= served
			budget -= served
			if j.remaining > 0 {
				break
			}
			id := j.id
			jobs = jobs[1:]
			op := k.ops[id]
			op.hops++
			if op.hops == len(op.stages) {
				delete(k.ops, id)
				k.done[k.nDone%len(k.done)] = op
				k.nDone++
				k.launch()
				continue
			}
			heap.Push(&k.cal, refEvent{due: k.now + refTick*k.uniform(), queue: int(k.rand() % refQueues), job: refJob{id: id, remaining: op.stages[op.hops]}})
		}
		if len(jobs) == 0 {
			jobs = nil // hand the backing array back, as a drained queue does
		}
		k.queues[q] = jobs
	}
}

func (k *refKernel) run(steps int) {
	for i := 0; i < steps; i++ {
		k.step()
	}
}

// refMode is how a workload's reference slices run: on as many goroutines as
// the workload uses, in the workload's own pattern.
type refMode struct {
	parallel bool // one kernel per worker, otherwise one on the calling goroutine
	steps    int  // per slice and kernel
	// stride is the steps a worker takes between barriers; the work is handed
	// out over one channel per worker and awaited on a wait group, as
	// dispatch.Sharded hands out its windows.
	stride int
	// nominalMs is one slice on the quiet reference box (2 cores of a 2.1 GHz
	// Xeon, go1.24).
	nominalMs float64
}

var (
	refSequential = refMode{steps: 14000, stride: 14000, nominalMs: 33}
	refLockstep   = refMode{parallel: true, steps: 4400, stride: 1, nominalMs: 40}
	refPool       = refMode{parallel: true, steps: 7000, stride: 7000, nominalMs: 23.5}
)

// refClock runs the slices of one run.
type refClock struct {
	mode    refMode
	kernels []*refKernel
	jobs    []chan int
	wg      sync.WaitGroup
}

// newRefClock builds the kernels and runs them into their steady state. scale
// shortens the slices for the smoke test.
func newRefClock(mode refMode, workers int, scale float64) *refClock {
	if mode.steps == 0 { // a workload that names no mode
		mode = refSequential
	}
	mode.steps = max(int(float64(mode.steps)*scale), 1)
	c := &refClock{mode: mode}
	if !mode.parallel {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		c.kernels = append(c.kernels, newRefKernel(uint64(w)+1))
	}
	if mode.parallel {
		for _, k := range c.kernels {
			jobs := make(chan int, 1)
			c.jobs = append(c.jobs, jobs)
			go func() {
				for n := range jobs {
					k.run(n)
					c.wg.Done()
				}
			}()
		}
	}
	c.slice()
	return c
}

// slice runs one slice and returns the host time it took, in milliseconds. It
// starts from a collected heap, so that every slice meets the collector at
// the same points of its course.
func (c *refClock) slice() float64 {
	runtime.GC()
	t0 := time.Now()
	if !c.mode.parallel {
		c.kernels[0].run(c.mode.steps)
	}
	for left := c.mode.steps; c.mode.parallel && left > 0; left -= c.mode.stride {
		c.wg.Add(len(c.jobs))
		for _, jobs := range c.jobs {
			jobs <- min(left, c.mode.stride)
		}
		c.wg.Wait()
	}
	return float64(time.Since(t0)) / 1e6
}

// stop ends the worker goroutines.
func (c *refClock) stop() {
	for _, jobs := range c.jobs {
		close(jobs)
	}
	c.jobs = nil
}
