package core

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// window is the loop state of the production time loop and the phases that
// run on it; the Simulation holds one as its root, and Simulation.runWindow
// drives the phases in order. The counters (live, flows, completed, jumps,
// skipped) are running totals.
type window struct {
	s    *Simulation
	tick simtime.Tick // the tick this window's agents are scheduled from

	// cal is the pending-event set and, on the production loop, the active
	// set: one entry per active agent, keyed by the first tick at which it
	// may act. dirty queues the agents whose key is stale (AgentBase.dirty
	// gates membership). active lists the active agents for the reference
	// loop alone, in which an agent leaves it as soon as it goes idle.
	cal    calendar
	dirty  []AgentID
	active []AgentID

	// inv is the current window's involved set: the agents popped due at
	// its landing — the drain set, ascending — followed at a
	// synchronization point by every other calendar member.
	inv []AgentID

	// srcMin caches the earliest due tick of the simulation's sources, and
	// nextSnap the next collector-snapshot tick: the first multiple of
	// collectEvery after tick.
	srcMin   simtime.Tick
	nextSnap simtime.Tick

	live      int    // active agents
	flows     int    // in-flight operations
	completed uint64 // finished operations
	jumps     uint64 // fast-forward jumps taken
	skipped   uint64 // whole ticks those jumps skipped

	// Flow machinery: the response sink, the free lists of finished message
	// tokens and finished flows — linked through the entries themselves,
	// last freed first, so they hold the peak in flight with no table to
	// grow — and the ID counters (bookkeeping only — queueing is
	// arrival-ordered).
	resp       *metrics.Responses
	tokenFree  *token
	flowFree   *Flow
	nextFlowID uint64
	nextTaskID uint64
}

// pollDue polls the due sources and refreshes their schedules. A source is
// due when the window's tick has reached its cached due tick; by the
// NextPoll contract every earlier poll is a no-op, so skipping it is exact.
// Parked sources (+Inf schedules) are re-consulted only through
// RearmSource, so a window with nothing due costs one comparison however
// many sources sleep.
func (w *window) pollDue() {
	if w.srcMin > w.tick {
		return
	}
	s := w.s
	nowSec := s.clock.SecondsAt(w.tick)
	for i, src := range s.sources { // sources added by a poll are first polled next tick
		if s.srcDue[i] <= w.tick {
			src.Poll(s, nowSec)
			s.srcDue[i] = s.srcDueTick(src.NextPoll(nowSec), w.tick)
		}
	}
	w.srcMin = neverTick
	for _, due := range s.srcDue {
		w.srcMin = min(w.srcMin, due)
	}
}

// rekey recomputes the calendar entry of every agent marked dirty —
// MarkDirty: enqueues that report Rekey (delay lines), the hardware rate
// changes (which Sync before and MarkDirty after themselves), registrations —
// and clears the dirty set. It runs once per window, before the jump, so it
// also files the agents the previous window's drain marked. Arrivals with a
// bound (arrive) and the agents that acted (settle) are keyed where they
// happen, so only these agents pay a Horizon call here. A horizon is
// relative to the tick the agent's state has been stepped through, so the
// key is based at AgentBase.tick; every MarkDirty follows a Sync (or an
// activation, which starts the agent current), so that is the tick the
// agent was marked at, and no window has landed since. A dirty agent is
// active — MarkDirty activates it, and only settle, which no dirty agent
// reaches, retires one. The calendar's cursor moves up to the window's tick
// first: every entry due by then has been popped, so every key left lies
// beyond it.
func (w *window) rekey() {
	s := w.s
	w.cal.cursor = w.tick
	w.cal.grow(len(s.agents))
	for _, id := range w.dirty {
		b := s.bases[id]
		b.dirty = false
		w.cal.set(id, s.agentKey(s.agents[id].Horizon(), b.tick))
	}
	w.dirty = w.dirty[:0]
}

// jump sizes the window: how many whole ticks it may cover, in
// [1, bound-tick]. The landing is the earliest of the calendar head — the
// earliest agent event, stepped on the landing tick itself — the earliest
// due poll, which polls normally when the window lands on it, the next
// collector boundary, so snapshots sample busy accumulators at exactly the
// ticks the reference loop does, and the bound.
func (w *window) jump(bound simtime.Tick) simtime.Tick {
	n := min(bound, w.nextSnap, w.srcMin, w.cal.minKey()) - w.tick
	if n <= 1 {
		return 1
	}
	w.jumps++
	w.skipped += uint64(n - 1)
	return n
}

// popInvolved collects into inv the agents the window must advance to its
// landing tick and returns how many of them were popped due: those whose
// calendar entry is due by then (by jump construction, exactly at the
// landing, which is the calendar head when nothing else bounded the
// window). They leave the calendar — settle rekeys them once they have
// acted — and they are the drain set, sorted here into ascending ID order.
// With every entry due by the landing gone, the calendar's cursor moves up
// to it. A synchronization point also gathers every agent still in the
// calendar, in ID order: a collector boundary needs exact busy accumulators
// behind every probe, and a landing on the run limit hands callers a
// fully-advanced simulation; those lazy agents keep their entries. Step is
// agent-local, so the order agents advance in reaches no result — only the
// drain order does.
func (w *window) popInvolved(landing, limit simtime.Tick) int {
	w.inv = w.cal.popDue(landing, w.inv[:0])
	slices.Sort(w.inv)
	due := len(w.inv)
	w.cal.cursor = landing
	if landing == w.nextSnap || landing == limit {
		w.inv = w.cal.members(w.inv)
	}
	return due
}

// drain hands the completions of the drain set — the agents popped due at
// the landing, in ascending agent-ID order — to the flow router: the order
// the reference loop drains in, restricted to the only agents that can hold
// completions. Only an agent at its event tick can buffer one, and those
// are exactly the popped-due agents; an enqueue buffers none, and a lazy
// agent caught up at a synchronization point or by a sync crosses no event.
func (w *window) drain(due []AgentID) {
	for _, id := range due {
		w.s.drainDone(w.s.bases[id])
	}
}

// settle files an involved agent that has just reached the landing. An idle
// one retires, leaving the calendar and so the active set — only involved
// agents can have gone idle: a lazy agent still holds the work that parked
// its calendar entry. One without an entry (popped due) is keyed from its
// horizon at the landing; a lazy agent caught up at a synchronization point
// keeps its entry. Work the drain then hands an agent settled here lowers or
// sets its key through the router's arrive, or marks it dirty.
func (w *window) settle(id AgentID, landing simtime.Tick) {
	s := w.s
	if b := s.bases[id]; s.agents[id].Idle() {
		b.active = false
		w.live--
		w.cal.remove(id)
	} else if !w.cal.contains(id) {
		w.cal.set(id, s.agentKey(s.agents[id].Horizon(), landing))
	}
}

// newToken pops a pooled message token or allocates a fresh one.
func (w *window) newToken() *token {
	tok := w.tokenFree
	if tok != nil {
		w.tokenFree, tok.nextFree = tok.nextFree, nil
	} else {
		tok = &token{}
	}
	w.nextTaskID++
	tok.task.ID = w.nextTaskID
	return tok
}

// freeToken resets a finished token and returns it to the pool. The caller
// guarantees no queue holds the embedded task anymore — a token only
// finishes when its final stage's completion has been drained.
func (w *window) freeToken(tok *token) {
	*tok = token{nextFree: w.tokenFree}
	w.tokenFree = tok
}

// newFlow pops a pooled flow or allocates a fresh one.
func (w *window) newFlow() *Flow {
	f := w.flowFree
	if f == nil {
		return &Flow{}
	}
	w.flowFree, f.nextFree = f.nextFree, nil
	return f
}

// freeFlow resets a finished flow — dropping its operation's closures — and
// returns it to the pool. The caller guarantees its last token is gone.
func (w *window) freeFlow(f *Flow) {
	*f = Flow{nextFree: w.flowFree}
	w.flowFree = f
}
