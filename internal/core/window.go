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

	// cal is the pending-event set: one entry per active agent, keyed by
	// the first tick at which it may act. dirty queues the agents whose key
	// is stale (AgentBase.dirty gates membership). active lists the agents
	// with in-flight work or a pin — possibly with tombstones, dropped by
	// compact — and pinned those that join every window's involved set.
	cal    calendar
	active []AgentID
	pinned []AgentID
	dirty  []AgentID

	// drainPend is the drain set: agents popped due or enqueued on since
	// the last drain (AgentBase.pendDrain gates membership); drainSpare
	// recycles the previous drain's backing array. inv is the current
	// window's involved set.
	drainPend  []AgentID
	drainSpare []AgentID
	inv        []AgentID

	// srcMin caches the earliest due tick of the simulation's sources.
	srcMin simtime.Tick

	live      int    // active agents, tombstones excluded
	flows     int    // in-flight operations
	completed uint64 // finished operations
	jumps     uint64 // fast-forward jumps taken
	skipped   uint64 // whole ticks those jumps skipped

	// Flow machinery: the response sink, the free lists of finished message
	// tokens and finished flows, and the ID counters (bookkeeping only —
	// queueing is arrival-ordered).
	resp       *metrics.Responses
	tokenPool  []*token
	flowPool   []*Flow
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

// rekey recomputes the calendar entry of every agent whose horizon was
// invalidated — enqueued on, drained into, past its event tick, or
// deactivated — and clears the dirty set: only these agents pay a Horizon
// call per window. A horizon is relative to the tick the agent's state has
// been stepped through, so the key is based at agentTick; for agents
// invalidated through the usual hooks that is the window's tick (enqueues
// sync first, popped-due agents were advanced to the landing), and a bare
// MarkDirty on a lazily-stepped agent re-bases correctly too.
func (w *window) rekey() {
	s := w.s
	for _, id := range w.dirty {
		b := s.bases[id]
		b.dirty = false
		if !b.active {
			w.cal.remove(id)
			continue
		}
		base := s.agentTick[id]
		w.cal.set(id, s.agentKey(s.agentHorizon(id, base), base))
	}
	w.dirty = w.dirty[:0]
}

// jump sizes the window: how many whole ticks it may cover, in
// [1, bound-tick]. The landing falls strictly before the earliest agent
// event — that tick is single-stepped by a later window — at or before the
// earliest due poll, which polls normally when the window lands on it, and
// never beyond the next collector boundary, so snapshots sample busy
// accumulators at exactly the ticks the reference loop does.
func (w *window) jump(bound simtime.Tick) simtime.Tick {
	max := bound - w.tick
	if b := nextCollectBoundary(w.tick, w.s.collectEvery) - w.tick; b < max {
		max = b
	}
	if w.srcMin != neverTick && w.srcMin-w.tick < max {
		max = w.srcMin - w.tick
	}
	if h := w.cal.minKey(); h != neverTick && h-1-w.tick < max {
		max = h - 1 - w.tick
	}
	if max <= 1 {
		return 1
	}
	w.jumps++
	w.skipped += uint64(max - 1)
	return max
}

// popInvolved collects into inv, in ascending ID order, the agents the
// window must advance to its landing tick: those whose calendar entry is
// due by then (by jump construction, exactly at the landing) plus every
// pinned agent. Popping marks them dirty — their horizon changes as they
// act — and into the drain set; rekey just ran, so the dirty flag doubles
// as the dedup gate. Synchronization points gather every active agent
// instead: a collector boundary needs exact busy accumulators behind every
// probe, and a landing on the run limit hands callers a fully-advanced
// simulation.
func (w *window) popInvolved(landing, limit simtime.Tick) {
	s := w.s
	w.inv = w.inv[:0]
	for w.cal.minKey() <= landing {
		id := w.cal.popMin()
		b := s.bases[id]
		b.dirty = true
		w.dirty = append(w.dirty, id)
		w.inv = append(w.inv, id)
		w.markDrain(b)
	}
	for _, id := range w.pinned {
		b := s.bases[id]
		if !b.dirty {
			b.dirty = true
			w.dirty = append(w.dirty, id)
			w.inv = append(w.inv, id)
		}
		w.markDrain(b)
	}
	if landing%s.collectEvery == 0 || landing == limit {
		w.compact()
		w.inv = append(w.inv[:0], w.active...)
	} else {
		slices.Sort(w.inv)
	}
}

// markDrain adds an agent to the drain set once.
func (w *window) markDrain(b *AgentBase) {
	if !b.pendDrain {
		b.pendDrain = true
		w.drainPend = append(w.drainPend, b.id)
	}
}

// compact drops the tombstones deactivation leaves in the active list and
// restores ascending ID order.
func (w *window) compact() {
	kept := w.active[:0]
	for _, id := range w.active {
		if b := w.s.bases[id]; b.active {
			kept = append(kept, id)
		} else {
			b.listed = false
		}
	}
	w.active = kept
	slices.Sort(w.active)
}

// drain hands the completions of the drain set to the flow router in
// ascending agent-ID order — the order the reference loop drains in,
// restricted to the only agents that can hold completions or fresh work.
// Invalidations fired meanwhile (downstream enqueues) accumulate for the
// next window's drain.
func (w *window) drain() {
	s := w.s
	pend := w.drainPend
	w.drainPend = w.drainSpare[:0]
	slices.Sort(pend)
	for _, id := range pend {
		s.bases[id].pendDrain = false
		s.agents[id].Drain(s.drainFn)
	}
	w.drainSpare = pend[:0]
}

// retireIdle deactivates the involved agents that went idle. Only they can
// have: a lazy agent still holds the work that parked its calendar entry.
// The active-list entry stays behind as a tombstone until compact.
func (w *window) retireIdle() {
	for _, id := range w.inv {
		if b := w.s.bases[id]; b.active && !b.pinned && w.s.agents[id].Idle() {
			b.active = false
			w.live--
			w.cal.remove(id)
		}
	}
}

// newToken pops a pooled message token or allocates a fresh one.
func (w *window) newToken() *token {
	var tok *token
	if n := len(w.tokenPool); n > 0 {
		tok = w.tokenPool[n-1]
		w.tokenPool[n-1] = nil
		w.tokenPool = w.tokenPool[:n-1]
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
	*tok = token{}
	w.tokenPool = append(w.tokenPool, tok)
}

// newFlow pops a pooled flow or allocates a fresh one.
func (w *window) newFlow() *Flow {
	if n := len(w.flowPool); n > 0 {
		f := w.flowPool[n-1]
		w.flowPool[n-1] = nil
		w.flowPool = w.flowPool[:n-1]
		return f
	}
	return &Flow{}
}

// freeFlow resets a finished flow — dropping its operation's closures — and
// returns it to the pool. The caller guarantees its last token is gone.
func (w *window) freeFlow(f *Flow) {
	*f = Flow{}
	w.flowPool = append(w.flowPool, f)
}
