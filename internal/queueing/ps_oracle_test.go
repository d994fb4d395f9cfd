package queueing

import (
	"fmt"
	"math"
)

// The processor-sharing queue as it stood before Horizon and Step found
// their next event in one pass, kept verbatim (type renamed; CanBulk, which
// production no longer has, the accessors nothing calls and the notify hook
// dropped; Enqueue reports a start at the next fill as PS's does) as the
// oracle of TestPSMatchesReference and FuzzPSMatchesReference. It shares
// Task, the task list, eps and repeatSub with production.

// refPS is a processor-sharing queue with a connection limit k and a constant
// per-task latency, modeling network links (M/M/1/k-PS, Fig. 3-6 right).
// Up to k tasks are served simultaneously; the service rate is divided
// uniformly among them. Each task additionally waits out a fixed latency
// (propagation delay) before its transfer begins, while holding one of the
// k connection slots, matching the paper's "latency ... added to the
// processing time of each task".
type refPS struct {
	rate    float64 // units per second, shared among active tasks
	k       int     // max simultaneous connections
	latency float64 // seconds added ahead of each task's transfer

	waiting   TaskList
	inService []*Task
	offs      []float64 // Step scratch: per-slot expiry offsets

	work     float64 // accumulated transmitted units (for utilization)
	arrivals uint64
}

// newRefPS returns a processor-sharing queue with aggregate rate (units/second),
// connection limit k and constant latency in seconds. Panics on non-positive
// rate or k, or negative latency.
func newRefPS(rate float64, k int, latency float64) *refPS {
	if rate <= 0 || k <= 0 || latency < 0 {
		panic(fmt.Sprintf("queueing: invalid PS rate=%v k=%d latency=%v", rate, k, latency))
	}
	return &refPS{rate: rate, k: k, latency: latency}
}

// SetRate changes the aggregate service rate, modeling partial degradation
// (a browned-out link). It takes effect from the next Step: in-flight tasks
// finish their remaining demand at the new share. Callers must invoke it
// from a sequential simulation phase and invalidate the owning agent's
// cached horizon (Sync before, MarkDirty after), exactly like an Enqueue.
// Panics on a non-positive rate — degradation never reaches zero; a dead
// link is modeled by failing it.
func (q *refPS) SetRate(rate float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("queueing: invalid PS rate %v", rate))
	}
	q.rate = rate
}

// SetLatency changes the constant per-task delay. Only tasks enqueued after
// the change observe it: Enqueue snapshots the latency into the task's
// delay countdown, so transfers already in their latency phase keep the
// delay they started with. Panics on a negative latency.
func (q *refPS) SetLatency(latency float64) {
	if latency < 0 {
		panic(fmt.Sprintf("queueing: invalid PS latency %v", latency))
	}
	q.latency = latency
}

// Enqueue adds a task and reports whether it will hold a connection slot at
// the next fill. Its Delay field is initialized to the link latency.
func (q *refPS) Enqueue(t *Task) bool {
	q.arrivals++
	t.Delay = q.latency
	q.waiting.Push(t)
	return len(q.inService)+q.waiting.Len() <= q.k
}

// Waiting reports tasks awaiting a connection slot.
func (q *refPS) Waiting() int { return q.waiting.Len() }

// InService reports tasks holding a connection slot.
func (q *refPS) InService() int { return len(q.inService) }

// Idle reports whether the queue holds no work.
func (q *refPS) Idle() bool { return len(q.inService) == 0 && q.waiting.Len() == 0 }

// Arrivals returns the total number of tasks ever enqueued.
func (q *refPS) Arrivals() uint64 { return q.arrivals }

// TakeBusy returns and resets the accumulated transmitted units. Dividing by
// rate x window yields the link utilization of the window.
func (q *refPS) TakeBusy() float64 {
	w := q.work
	q.work = 0
	return w
}

func (q *refPS) fill() {
	for len(q.inService) < q.k {
		t := q.waiting.Pop()
		if t == nil {
			return
		}
		q.inService = append(q.inService, t)
	}
}

// Horizon returns the time in seconds until the queue's next internal
// event — the earliest latency expiry (which changes the bandwidth share)
// or transfer completion at the current share — assuming no further
// arrivals; +Inf when the queue is empty. Waiting tasks are first promoted
// into free connection slots, mirroring Step's own promotion. The result
// may undershoot the next departure (a latency expiry is not a departure),
// which is safe: horizons bound fast-forward jumps from below.
func (q *refPS) Horizon() float64 {
	q.fill()
	if len(q.inService) == 0 {
		return math.Inf(1)
	}
	transferring := 0
	for _, t := range q.inService {
		if t.Delay <= eps {
			transferring++
		}
	}
	share := 0.0
	if transferring > 0 {
		share = q.rate / float64(transferring)
	}
	h := math.Inf(1)
	for _, t := range q.inService {
		if t.Delay > eps {
			if t.Delay < h {
				h = t.Delay
			}
		} else if share > 0 {
			if ttc := t.Demand / share; ttc < h {
				h = ttc
			}
		}
	}
	return h
}

// BulkStep advances the queue through n consecutive ticks of dt seconds in
// one call, bit-identical to n sequential Step(dt) calls. It must only be
// called when CanBulk(n*dt) holds: the bandwidth share is then constant
// across the window, so each tick subtracts the same consumed amount from
// every transferring task (and dt from every latency countdown), and the
// work accumulator receives the same constant once per transferring task
// per tick — a sequence whose float result is order-independent because
// every addend is identical.
func (q *refPS) BulkStep(n int, dt float64) {
	if len(q.inService) == 0 {
		return
	}
	transferring := 0
	for _, t := range q.inService {
		if t.Delay <= eps {
			transferring++
		}
	}
	share := 0.0
	if transferring > 0 {
		share = q.rate / float64(transferring)
	}
	consumed := dt * share
	for _, t := range q.inService {
		if t.Delay > eps {
			t.Delay = repeatSub(t.Delay, dt, n)
		} else {
			t.Demand = repeatSub(t.Demand, consumed, n)
		}
	}
	q.work = repeatSub(q.work, -consumed, n*transferring)
}

// Step advances the queue by dt seconds resolving completions exactly.
// Bandwidth is shared among all tasks holding a slot whose latency phase
// has elapsed; tasks still in the latency phase only count down their
// delay. A latency countdown decrements exactly once per Step, by the full
// dt — the same per-tick arithmetic BulkStep replays in bulk — so a
// countdown's float trajectory depends only on the whole ticks elapsed
// since its enqueue, never on how other tasks' completions sub-split a
// step. The pre-decrement
// delay doubles as each task's expiry offset inside this step: a task
// starts transferring once the resolved sub-steps cover its offset. A task
// promoted out of the waiting line mid-step (a slot freed under
// contention) starts its countdown at the next step.
func (q *refPS) Step(dt float64, done DoneFunc) {
	q.fill()
	if len(q.inService) == 0 {
		return
	}
	offs := q.offs[:0]
	for _, t := range q.inService {
		off := 0.0
		if t.Delay > eps {
			off = t.Delay
			t.Delay -= dt
			if t.Delay < eps {
				t.Delay = 0
			}
		}
		offs = append(offs, off)
	}
	elapsed := 0.0
	remaining := dt
	for remaining > eps && len(q.inService) > 0 {
		transferring := 0
		for i := range q.inService {
			if offs[i] <= elapsed+eps {
				transferring++
			}
		}
		share := 0.0
		if transferring > 0 {
			share = q.rate / float64(transferring)
		}
		// Next event: earliest latency expiry or transfer completion,
		// capped by the remaining step. An unexpired offset exceeds
		// elapsed by more than eps, so every boundary sub-step is a real
		// advance and the loop terminates.
		sub := remaining
		for i, t := range q.inService {
			if off := offs[i]; off > elapsed+eps {
				if b := off - elapsed; b < sub {
					sub = b
				}
			} else if share > 0 {
				if ttc := t.Demand / share; ttc < sub {
					sub = ttc
				}
			}
		}
		if sub < 0 {
			sub = 0
		}
		kept := q.inService[:0]
		keptOffs := offs[:0]
		for i, t := range q.inService {
			if offs[i] > elapsed+eps {
				kept = append(kept, t)
				keptOffs = append(keptOffs, offs[i])
				continue
			}
			consumed := sub * share
			t.Demand -= consumed
			q.work += consumed
			if t.Demand <= eps*q.rate {
				t.Demand = 0
				done(t)
			} else {
				kept = append(kept, t)
				keptOffs = append(keptOffs, offs[i])
			}
		}
		for i := len(kept); i < len(q.inService); i++ {
			q.inService[i] = nil
		}
		q.inService = kept
		offs = keptOffs
		promoted := len(q.inService)
		q.fill()
		for i := promoted; i < len(q.inService); i++ {
			offs = append(offs, math.Inf(1))
		}
		elapsed += sub
		remaining -= sub
	}
	q.offs = offs
}
