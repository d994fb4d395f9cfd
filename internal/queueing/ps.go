package queueing

import (
	"fmt"
	"math"
)

// PS is a processor-sharing queue with a connection limit k and a constant
// per-task latency, modeling network links (M/M/1/k-PS, Fig. 3-6 right).
// Up to k tasks are served simultaneously; the service rate is divided
// uniformly among them. Each task additionally waits out a fixed latency
// (propagation delay) before its transfer begins, while holding one of the
// k connection slots, matching the paper's "latency ... added to the
// processing time of each task".
type PS struct {
	rate    float64 // units per second, shared among active tasks
	k       int     // max simultaneous connections
	latency float64 // seconds added ahead of each task's transfer

	waiting TaskList
	// inService holds the tasks holding a connection slot, each beside its
	// expiry offset within the Step in progress (Step's scratch), so the
	// two grow as one block. The first slot is the queue's own (first): a
	// link that never holds two connections at once allocates none.
	inService []psSlot
	first     [1]psSlot

	work     float64 // accumulated transmitted units (for utilization)
	arrivals uint64
}

// psSlot is a connection slot: its task and, during a Step, the task's
// expiry offset in it.
type psSlot struct {
	t   *Task
	off float64
}

// NewPS returns a processor-sharing queue with aggregate rate (units/second),
// connection limit k and constant latency in seconds; see Init.
func NewPS(rate float64, k int, latency float64) *PS {
	q := new(PS)
	q.Init(rate, k, latency)
	return q
}

// Init sets q up in place as an empty processor-sharing queue with aggregate
// rate (units/second), connection limit k and constant latency in seconds,
// so the queue can live inside the agent that owns it. It allocates
// nothing; past the queue's own first slot, the slots grow with the
// connections actually held.
// Panics unless rate is positive and finite, k positive and latency
// non-negative and finite. Like an FCFS, the queue must not be copied once
// it holds work.
func (q *PS) Init(rate float64, k int, latency float64) {
	if !(rate > 0 && !math.IsInf(rate, 1) && k > 0 && latency >= 0 && !math.IsInf(latency, 1)) {
		panic(fmt.Sprintf("queueing: invalid PS rate=%v k=%d latency=%v", rate, k, latency))
	}
	*q = PS{rate: rate, k: k, latency: latency}
	q.inService = q.first[:0]
}

// Rate returns the aggregate service rate.
func (q *PS) Rate() float64 { return q.rate }

// SetRate changes the aggregate service rate, modeling partial degradation
// (a browned-out link). It takes effect from the next Step: in-flight tasks
// finish their remaining demand at the new share. Callers must invoke it
// from a sequential simulation phase and invalidate the owning agent's
// cached horizon (Sync before, MarkDirty after). Panics unless the rate is
// positive and finite — degradation never reaches zero; a dead link is
// modeled by failing it.
func (q *PS) SetRate(rate float64) {
	if !(rate > 0 && !math.IsInf(rate, 1)) {
		panic(fmt.Sprintf("queueing: invalid PS rate %v", rate))
	}
	q.rate = rate
}

// SetLatency changes the constant per-task delay. Only tasks enqueued after
// the change observe it: Enqueue snapshots the latency into the task's
// delay countdown, so transfers already in their latency phase keep the
// delay they started with. Panics unless the latency is non-negative and
// finite.
func (q *PS) SetLatency(latency float64) {
	if !(latency >= 0 && !math.IsInf(latency, 1)) {
		panic(fmt.Sprintf("queueing: invalid PS latency %v", latency))
	}
	q.latency = latency
}

// Latency returns the constant per-task delay in seconds.
func (q *PS) Latency() float64 { return q.latency }

// Enqueue adds a task and reports whether it will hold a connection slot at
// the next fill. Its Delay field is initialized to the link latency.
func (q *PS) Enqueue(t *Task) bool {
	q.arrivals++
	t.Delay = q.latency
	q.waiting.Push(t)
	return len(q.inService)+q.waiting.Len() <= q.k
}

// Admit is Enqueue on an ingress queue (see FCFS.Admit): when the task will
// hold a connection slot at the next fill it returns a lower bound h on the
// task's first event — its latency (the expiry that changes the share) if
// that exceeds eps, and otherwise Demand/rate, its transfer alone at the
// full rate, a bound because the share is at most the rate — and +Inf when
// it waits for a slot, where it changes no share until it is promoted. An
// arrival can only lower the share, which moves every other completion
// later, so the queue's next event after the enqueue is never earlier than
// min(Horizon() before, h); with latency, or on an idle queue, h is the
// expression Horizon evaluates and the bound is exact.
func (q *PS) Admit(t *Task) float64 {
	if !q.Enqueue(t) {
		return math.Inf(1)
	}
	if t.Delay > eps {
		return t.Delay
	}
	return t.Demand / q.rate
}

// Waiting reports tasks awaiting a connection slot.
func (q *PS) Waiting() int { return q.waiting.Len() }

// InService reports tasks holding a connection slot.
func (q *PS) InService() int { return len(q.inService) }

// Idle reports whether the queue holds no work.
func (q *PS) Idle() bool { return len(q.inService) == 0 && q.waiting.Len() == 0 }

// Arrivals returns the total number of tasks ever enqueued.
func (q *PS) Arrivals() uint64 { return q.arrivals }

// TakeBusy returns and resets the accumulated transmitted units. Dividing by
// rate x window yields the link utilization of the window.
func (q *PS) TakeBusy() float64 {
	w := q.work
	q.work = 0
	return w
}

func (q *PS) fill() {
	for len(q.inService) < q.k {
		t := q.waiting.Pop()
		if t == nil {
			return
		}
		q.inService = append(q.inService, psSlot{t: t})
	}
}

// Horizon returns the time in seconds until the queue's next internal
// event — the earliest latency expiry (which changes the bandwidth share)
// or transfer completion at the current share — assuming no further
// arrivals; +Inf when the queue is empty. Waiting tasks are first promoted
// into free connection slots, mirroring Step's own promotion. The result
// may undershoot the next departure (a latency expiry is not a departure),
// which is safe: horizons bound fast-forward jumps from below.
//
// One pass finds the transferring count, the earliest expiry and the
// smallest transferring demand; the earliest completion is that demand over
// the share. Division by a positive share is monotone, so this is the
// minimum of the per-task quotients, bit for bit.
func (q *PS) Horizon() float64 {
	q.fill()
	h, minDemand, transferring := math.Inf(1), math.Inf(1), 0
	for _, s := range q.inService {
		if t := s.t; t.Delay > eps {
			if t.Delay < h {
				h = t.Delay
			}
		} else {
			transferring++
			if t.Demand < minDemand {
				minDemand = t.Demand
			}
		}
	}
	if share := q.share(transferring); share > 0 {
		if ttc := minDemand / share; ttc < h {
			h = ttc
		}
	}
	return h
}

// share returns the part of the rate each of transferring tasks gets, or 0
// when none transfers.
func (q *PS) share(transferring int) float64 {
	if transferring == 0 {
		return 0
	}
	return q.rate / float64(transferring)
}

// BulkStep advances the queue through n consecutive ticks of dt seconds in
// one call, bit-identical to n sequential Step(dt) calls. It must only be
// called when no event falls in the window — the next event lies beyond
// n*dt by a margin (see FCFS.BulkStep). It first promotes waiting tasks into
// free slots, as the window's first Step would. The bandwidth share is then
// constant across the window, so each tick subtracts the same consumed
// amount from every transferring task (and dt from every latency
// countdown), and each accumulator replays its n subtractions in its own
// loop (repeatSub). The work total receives the same constant once per
// transferring task per tick, n·transferring additions in one loop — a
// sequence whose float result is order-independent because every addend is
// identical.
func (q *PS) BulkStep(n int, dt float64) {
	q.fill()
	if len(q.inService) == 0 {
		return
	}
	transferring := 0
	for _, s := range q.inService {
		if s.t.Delay <= eps {
			transferring++
		}
	}
	consumed := dt * q.share(transferring)
	for _, s := range q.inService {
		if t := s.t; t.Delay > eps {
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
// step. The pre-decrement delay doubles as each task's expiry offset inside
// this step: a task starts transferring once the resolved sub-steps cover
// its offset, and a sub-step in which no task transfers only advances the
// step's clock. A task promoted out of the waiting line mid-step (a slot
// freed under contention) starts its countdown at the next step.
func (q *PS) Step(dt float64, done DoneFunc) {
	q.fill()
	if len(q.inService) == 0 {
		return
	}
	for i := range q.inService {
		off := 0.0
		if t := q.inService[i].t; t.Delay > eps {
			off = t.Delay
			t.Delay -= dt
			if t.Delay < eps {
				t.Delay = 0
			}
		}
		q.inService[i].off = off
	}
	elapsed := 0.0
	remaining := dt
	for remaining > eps && len(q.inService) > 0 {
		// Next event: earliest latency expiry or transfer completion,
		// capped by the remaining step, from one pass as in Horizon —
		// rounded subtraction of elapsed is monotone too. An unexpired
		// offset exceeds elapsed by more than eps, so every boundary
		// sub-step is a real advance and the loop terminates.
		minOff, minDemand, transferring := math.Inf(1), math.Inf(1), 0
		for _, s := range q.inService {
			if s.off > elapsed+eps {
				if s.off < minOff {
					minOff = s.off
				}
			} else {
				transferring++
				if s.t.Demand < minDemand {
					minDemand = s.t.Demand
				}
			}
		}
		share := q.share(transferring)
		sub := remaining
		if b := minOff - elapsed; b < sub {
			sub = b
		}
		if share > 0 {
			if ttc := minDemand / share; ttc < sub {
				sub = ttc
			}
		}
		if sub < 0 {
			sub = 0
		}
		if transferring == 0 {
			// Every task is still in its latency phase: no demand changes,
			// nothing completes and no slot frees, so the compaction pass
			// and the refill would leave everything as it is — the last
			// fill left the slots full or the waiting line empty.
			elapsed += sub
			remaining -= sub
			continue
		}
		kept := q.inService[:0]
		for _, s := range q.inService {
			if s.off > elapsed+eps {
				kept = append(kept, s)
				continue
			}
			t := s.t
			consumed := sub * share
			t.Demand -= consumed
			q.work += consumed
			if t.Demand <= eps*q.rate {
				t.Demand = 0
				done(t)
			} else {
				kept = append(kept, s)
			}
		}
		for i := len(kept); i < len(q.inService); i++ {
			q.inService[i] = psSlot{}
		}
		q.inService = kept
		// Tasks promoted into freed slots start their countdown at the next
		// step: their offset is one no sub-step reaches.
		promoted := len(q.inService)
		q.fill()
		for i := promoted; i < len(q.inService); i++ {
			q.inService[i].off = math.Inf(1)
		}
		elapsed += sub
		remaining -= sub
	}
}
