package queueing

import (
	"fmt"
	"math"
)

// eps guards float comparisons when resolving sub-step completions.
const eps = 1e-12

// FCFS is a first-come-first-served queue with c identical servers, each
// consuming Demand units at rate units/second. It models the CPU core group
// (M/M/q per socket, Fig. 3-4), NICs and switches (M/M/1, Fig. 3-6), and the
// stages of the RAID and SAN models (Figs. 3-7, 3-8): the array controller
// cache, fibre-channel switch and loop, the lockstep disk controller caches
// and each drive lane.
type FCFS struct {
	rate    float64
	servers int

	waiting   TaskList
	inService []*Task
	solo      [1]*Task // inService's backing array on a single server

	busy     float64 // accumulated server-seconds of busy time
	arrivals uint64
	departs  uint64

	notify Notifier // arrival hook (see SetNotify)
}

// SetNotify installs the arrival hook: n.Arrive is invoked on every Enqueue
// whose task will hold a server at the next fill — the only arrivals that
// can move the queue's next event earlier — with the arriving task's own
// first event, its service time Demand/rate. An arrival changes no other
// task's completion, so the queue's next event after the enqueue is exactly
// min(Horizon() before, h). A task that has to wait behind busy servers
// fires nothing: its first event lies beyond the queue's horizon, and a
// queue that already holds work belongs to an agent that is active and
// keyed. Owning agents forward the hook to their event calendar — the
// agent's *core.AgentBase is the Notifier, and its Arrive lowers the agent's
// key to h without a Horizon call. The hook runs synchronously inside
// Enqueue: it must only be set on queues that receive work from sequential
// simulation phases (ingress queues), never on queues fed by internal
// handoffs inside the parallel Step phase — those transitions occur only at
// scheduled event ticks, where the loop rekeys the agent right after it
// acts.
func (q *FCFS) SetNotify(n Notifier) { q.notify = n }

// NewFCFS returns an FCFS queue with the given number of servers and
// per-server service rate (units per second); see Init.
func NewFCFS(servers int, rate float64) *FCFS {
	q := new(FCFS)
	q.Init(servers, rate)
	return q
}

// Init sets q up in place as an empty queue with the given number of
// servers and per-server service rate (units per second), so a queue can
// live inside the agent that owns it, or in a slab of queues, rather than
// behind a pointer of its own. A single-server queue keeps its one
// in-service task inside itself and allocates nothing; c servers take one
// slice of c. It panics unless servers is positive and rate positive and
// finite — a NaN rate would leave every task in service forever — since a
// queue that can never serve work is a configuration error. After Init the
// queue must stay where it is: a copy shares its in-service array and the
// links of its tasks, so code holding queues by value takes their address
// (range by index) instead of copying them.
func (q *FCFS) Init(servers int, rate float64) {
	if !(servers > 0 && rate > 0 && !math.IsInf(rate, 1)) {
		panic(fmt.Sprintf("queueing: invalid FCFS servers=%d rate=%v", servers, rate))
	}
	*q = FCFS{rate: rate, servers: servers}
	if servers == 1 {
		q.inService = q.solo[:0]
	} else {
		q.inService = make([]*Task, 0, servers)
	}
}

// Rate returns the per-server service rate.
func (q *FCFS) Rate() float64 { return q.rate }

// SetRate changes the per-server service rate, modeling partial degradation
// (a derated CPU, a rebuilding drive). It takes effect from the next Step:
// in-service tasks finish their remaining demand at the new rate. Callers
// must invoke it from a sequential simulation phase and invalidate the
// owning agent's cached horizon (Sync before, MarkDirty after), exactly
// like an Enqueue. Panics unless the rate is positive and finite.
func (q *FCFS) SetRate(rate float64) {
	if !(rate > 0 && !math.IsInf(rate, 1)) {
		panic(fmt.Sprintf("queueing: invalid FCFS rate %v", rate))
	}
	q.rate = rate
}

// Servers returns the number of servers.
func (q *FCFS) Servers() int { return q.servers }

// Enqueue adds a task at the tail, firing the notify hook when the task will
// hold a server at the next fill. Zero-demand tasks are legal and complete on
// the next Step.
func (q *FCFS) Enqueue(t *Task) {
	q.arrivals++
	q.waiting.Push(t)
	if q.notify != nil && len(q.inService)+q.waiting.Len() <= q.servers {
		q.notify.Arrive(t.Demand / q.rate)
	}
}

// Waiting reports the number of queued (not in service) tasks.
func (q *FCFS) Waiting() int { return q.waiting.Len() }

// InService reports the number of tasks in service.
func (q *FCFS) InService() int { return len(q.inService) }

// Idle reports whether the queue holds no work.
func (q *FCFS) Idle() bool { return len(q.inService) == 0 && q.waiting.Len() == 0 }

// Arrivals returns the total number of tasks ever enqueued.
func (q *FCFS) Arrivals() uint64 { return q.arrivals }

// Departures returns the total number of tasks ever completed.
func (q *FCFS) Departures() uint64 { return q.departs }

// TakeBusy returns and resets the accumulated busy server-seconds.
func (q *FCFS) TakeBusy() float64 {
	b := q.busy
	q.busy = 0
	return b
}

// fill moves waiting tasks onto idle servers.
func (q *FCFS) fill() {
	for len(q.inService) < q.servers {
		t := q.waiting.Pop()
		if t == nil {
			return
		}
		q.inService = append(q.inService, t)
	}
}

// Horizon returns the time in seconds until the queue's next departure
// assuming no further arrivals, or +Inf when the queue is empty. It first
// promotes waiting tasks onto idle servers — the same promotion Step would
// perform at its start, so calling Horizon never changes what Step computes
// — then takes the minimum time-to-completion over the tasks in service.
// The value is exact for the earliest event; fast-forward jumps must stop
// strictly before it.
func (q *FCFS) Horizon() float64 {
	q.fill()
	if len(q.inService) == 0 {
		return math.Inf(1)
	}
	h := math.Inf(1)
	for _, t := range q.inService {
		if ttc := t.Demand / q.rate; ttc < h {
			h = ttc
		}
	}
	return h
}

// BulkStep advances the queue through n consecutive ticks of dt seconds in
// one call, producing state bit-identical to n sequential Step(dt) calls.
// It must only be called when nothing completes in the window: the queue's
// next event lies beyond n*dt by a margin that absorbs Step's eps-early
// completions and the float drift of a long subtraction chain (the
// production loop leaves 1e-6 s). It first promotes waiting tasks onto free
// servers, as the window's first Step would — a task enqueued since the
// last Step or Horizon call still waits even with a server free. Then each
// tick's arithmetic reduces to one constant subtraction per in-service task
// and one constant busy addition, and those per-accumulator operation
// sequences are replayed exactly, four accumulators abreast (chains) — only
// the per-tick call overhead (refill, completion scans) is elided. BulkStep
// does not check the precondition.
func (q *FCFS) BulkStep(n int, dt float64) {
	q.fill()
	if len(q.inService) == 0 {
		return
	}
	c := chains{n: n}
	c.add(&q.busy, -(dt * float64(len(q.inService))))
	work := dt * q.rate
	for _, t := range q.inService {
		c.add(&t.Demand, work)
	}
	c.flush()
}

// Step advances the queue by dt seconds. Completions within the step are
// resolved exactly: the step is subdivided at each completion instant so a
// freed server immediately picks up the next waiting task. A single-server
// queue — every NIC, switch, storage stage and drive — takes stepOne, the
// same arithmetic without the multi-server scans.
func (q *FCFS) Step(dt float64, done DoneFunc) {
	if q.servers == 1 {
		q.stepOne(dt, done)
		return
	}
	q.stepServers(dt, done)
}

// stepOne is Step on a single server. Per sub-step it performs the
// operations of stepServers in the same order and with the same expression
// shapes — busy += sub is stepServers' sub*1 exactly — and calls done while
// the task still occupies the server, so a done that enqueues into or
// inspects this queue sees what it would there.
func (q *FCFS) stepOne(dt float64, done DoneFunc) {
	var t *Task
	if len(q.inService) > 0 {
		t = q.inService[0]
	} else if t = q.waiting.Pop(); t != nil {
		q.inService = append(q.inService, t)
	} else {
		return
	}
	for remaining := dt; remaining > eps; {
		sub := remaining
		if ttc := t.Demand / q.rate; ttc < sub {
			sub = ttc
		}
		if sub < 0 {
			sub = 0
		}
		work := sub * q.rate
		q.busy += sub
		t.Demand -= work
		remaining -= sub
		if !(t.Demand <= eps*q.rate) {
			continue
		}
		t.Demand = 0
		q.departs++
		done(t)
		q.inService[0] = nil
		q.inService = q.inService[:0]
		if t = q.waiting.Pop(); t == nil {
			return
		}
		q.inService = append(q.inService, t)
	}
}

// Solo is what serving one task alone on an idle single-server queue costs
// that depends only on the task's demand and the rate: the sub-step Step
// would take for it, if Step would complete the task at its end. It is the
// per-task half of ServeSolos, computed once (FCFS.Solo) for every queue of
// that rate that receives the same demand — the drive lanes of a disk array
// all receive each request's stripe.
type Solo struct {
	rate float64 // the rate it was computed at
	sub  float64 // Demand/rate, clamped at 0; +Inf if Step would not complete the task there
}

// Solo returns the solo service of a task of the given demand at q's rate,
// with the expressions stepOne evaluates for it.
func (q *FCFS) Solo(demand float64) Solo {
	sub := demand / q.rate
	if sub < 0 {
		sub = 0
	}
	if work := sub * q.rate; !(demand-work <= eps*q.rate) {
		sub = math.Inf(1)
	}
	return Solo{rate: q.rate, sub: sub}
}

// ServeSolos serves, in order, the tasks whose solo services are ss within
// one step of dt seconds on an idle single-server queue, leaving the state
// that enqueuing each task and then calling Step(dt) would leave, and
// reports whether it did. It takes, task by task, exactly the branches Step
// would take, and accepts only if each solo was computed at the queue's
// rate and each task starts with more than eps of the step left and
// finishes strictly inside it; then it adds each sub-step to the busy time
// in order and counts the arrivals and departures. Otherwise it returns
// false having changed nothing, and the caller enqueues and steps as usual.
// The tasks themselves are the caller's: their completion, in order, and
// the demands Step would zero. A queue with a notify hook is refused:
// Enqueue would fire it.
func (q *FCFS) ServeSolos(ss []Solo, dt float64) bool {
	if q.servers != 1 || q.notify != nil || len(q.inService) > 0 || q.waiting.Len() > 0 {
		return false
	}
	busy, remaining := q.busy, dt
	for _, s := range ss {
		if !(remaining > eps && s.rate == q.rate && s.sub < remaining) {
			return false
		}
		busy += s.sub
		remaining -= s.sub
	}
	q.busy = busy
	q.arrivals += uint64(len(ss))
	q.departs += uint64(len(ss))
	return true
}

// stepServers is Step on c servers. On one server it is also the reference
// the tests hold stepOne and ServeSolos to.
func (q *FCFS) stepServers(dt float64, done DoneFunc) {
	q.fill()
	remaining := dt
	for remaining > eps && len(q.inService) > 0 {
		// Time until the earliest in-service completion.
		sub := remaining
		for _, t := range q.inService {
			if ttc := t.Demand / q.rate; ttc < sub {
				sub = ttc
			}
		}
		if sub < 0 {
			sub = 0
		}
		work := sub * q.rate
		q.busy += sub * float64(len(q.inService))
		// Advance all in-service tasks, compacting completions in place.
		kept := q.inService[:0]
		for _, t := range q.inService {
			t.Demand -= work
			if t.Demand <= eps*q.rate {
				t.Demand = 0
				q.departs++
				done(t)
			} else {
				kept = append(kept, t)
			}
		}
		// Zero trailing slots so completed tasks do not leak.
		for i := len(kept); i < len(q.inService); i++ {
			q.inService[i] = nil
		}
		q.inService = kept
		q.fill()
		remaining -= sub
		if sub == 0 && len(q.inService) > 0 {
			// Only zero-demand tasks were completed; loop again without
			// consuming time.
			continue
		}
	}
}
