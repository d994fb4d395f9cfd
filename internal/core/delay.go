package core

import (
	"math"

	"repro/internal/queueing"
)

// DelayLine is a pseudo-agent that holds tasks for a fixed delay without
// contention. It models client-side time (think time, local rendering) and
// any stage where elapsed time matters but no shared resource is consumed.
// The delay is carried in Task.Demand, in seconds: a delay stage's Demand.
type DelayLine struct {
	AgentBase
	now  float64
	heap delayHeap
	seq  uint64
}

// NewDelayLine creates and registers a delay line with the simulation.
func NewDelayLine(sim *Simulation, name string) *DelayLine {
	d := &DelayLine{}
	d.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(d)
	return d
}

// Enqueue admits a task; it will complete after task.Demand seconds. The
// line's local clock only advances while it is active, which is safe: the
// expiry of every held task is relative to that same local clock, which the
// router has synced to the current tick. It reports Rekey: the new expiry
// may precede the cached earliest one, and only Horizon reads it against
// the local clock exactly (QueueAgent).
func (d *DelayLine) Enqueue(t *queueing.Task) float64 {
	d.seq++
	d.heap.push(delayEntry{expiry: d.now + t.Demand, seq: d.seq, task: t})
	return Rekey
}

// Step advances local time and buffers expired tasks in expiry order (ties
// broken by admission order for determinism).
func (d *DelayLine) Step(dt float64) {
	d.now += dt
	for len(d.heap) > 0 && d.heap[0].expiry <= d.now+1e-12 {
		d.BufferDone(d.heap.pop().task)
	}
}

// StepN advances local time through n ticks in which no held task expires
// (BulkStepper), so the per-tick heap inspection is elided. The local clock
// must still accumulate tick by tick: expiries compare against it, so a
// single large addition would shift them by ulps.
func (d *DelayLine) StepN(n int, dt float64) {
	now := d.now
	for i := 0; i < n; i++ {
		now += dt
	}
	d.now = now
}

// Idle reports whether no tasks are waiting.
func (d *DelayLine) Idle() bool { return len(d.heap) == 0 }

// Horizon returns the time until the earliest held task expires, measured
// against the line's local clock — which is exactly the simulated time the
// line will accumulate across a fast-forward replay — or +Inf when empty.
func (d *DelayLine) Horizon() float64 {
	if len(d.heap) == 0 {
		return math.Inf(1)
	}
	return d.heap[0].expiry - d.now
}

type delayEntry struct {
	expiry float64
	seq    uint64
	task   *queueing.Task
}

// delayHeap is a binary min-heap on (expiry, seq) — a strict total order, so
// the pop sequence does not depend on the heap's internal layout. It is
// written out rather than built on container/heap, whose any-typed Push and
// Pop box one entry per call: the delay line sits on every operation's path.
type delayHeap []delayEntry

func (h delayHeap) less(i, j int) bool {
	if h[i].expiry != h[j].expiry {
		return h[i].expiry < h[j].expiry
	}
	return h[i].seq < h[j].seq
}

func (h *delayHeap) push(e delayEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *delayHeap) pop() delayEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = delayEntry{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && s.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			return top
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}
