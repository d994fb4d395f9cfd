// Package core implements the simulation heart of GDISim: the agent
// abstraction of the Holonic Multi-Agent System (§3.3), the flow machinery
// that executes message cascades across hardware agents (§3.5.2), and the
// centralized discrete time loop with its three control phases (§4.3):
//
//  1. Time increment — every *active* agent (one with in-flight work or a
//     pin) advances its queues by one step. Idle agents are skipped: an
//     agent joins the active set when work is enqueued on it and leaves it
//     when a post-drain scan finds it idle, so the sweep cost scales with
//     utilization rather than topology size. On the reference loop the
//     phase runs through a pluggable Engine (sequential here; the Chapter-4
//     Scatter-Gather and H-Dispatch engines live in internal/dispatch); the
//     production loop steps agents itself on the calling goroutine.
//  2. Measurement collection — every collect-interval, probes snapshot
//     integrated busy time into time series.
//  3. Agent interaction — tasks that completed during the step advance
//     their flows and enqueue work on downstream agents. Work forwarded
//     during tick t is first served at tick t+1, enforcing the timestamp
//     consistency rule of §4.3.3.
//
// On top of the per-tick phases, RunFor and RunUntilIdle fast-forward the
// clock across provably quiet stretches: every agent and source reports an
// event horizon (Agent.Horizon, Source.NextPoll) and the loop jumps onto
// the earliest one, bit-identical to ticking through (see DESIGN.md, "The
// time loop").
package core

import (
	"fmt"

	"repro/internal/queueing"
)

// AgentID identifies an agent. IDs are assigned densely by the Simulation
// in registration order; draining completions in ID order is what makes
// parallel engines deterministic.
type AgentID int32

// Agent is a hardware component of the infrastructure — the lowest-level
// holon member (CPU, NIC, switch, link, RAID, SAN, delay line). Engines may
// step agents in parallel; they must only touch their own state during
// Step and buffer completed tasks in their AgentBase (BufferDone), whose
// buffer the simulation walks sequentially after the step.
//
// The simulation only sweeps *active* agents: an agent joins the active set
// when work is enqueued on it (MarkActive) and leaves it when a post-drain
// scan finds it Idle. Agents that must be stepped every tick regardless of
// queued work (synthetic load generators, polling components) opt out of
// deactivation with Pin.
type Agent interface {
	ID() AgentID
	Name() string
	// Base exposes the embedded AgentBase for activation bookkeeping. Every
	// agent obtains this method by embedding AgentBase.
	Base() *AgentBase
	// Step advances the agent's internal queues by dt simulated seconds.
	Step(dt float64)
	// Drain invokes fn for every task completed since the previous Drain,
	// in completion order, and clears the buffer. AgentBase supplies it for
	// callers that step an agent outside a simulation's loops (unit tests,
	// probes); neither loop calls it — both walk the completion buffer
	// straight into the flow router.
	Drain(fn func(*queueing.Task))
	// Idle reports whether the agent holds no in-flight work.
	Idle() bool
	// Horizon reports the time in seconds until the agent's next observable
	// event — a task completion or any internal state change that requires
	// per-tick stepping — assuming no new work arrives; +Inf when nothing
	// is scheduled. The fast-forward loop jumps the clock across quiet
	// ticks strictly before the earliest horizon, so undershooting is
	// always safe while overshooting would skip an event. AgentBase
	// supplies a conservative 0 ("I may act next tick") for agents that do
	// not override it. Only the production loop calls it, and only where
	// nothing cheaper knows the answer: to key an agent that has just acted
	// or was marked dirty, and to size the bulk chunks of a dirty agent. An
	// arrival keys itself (AgentBase.Arrive), so the calendar key is the only
	// horizon the loop otherwise consults. Like Step it must only touch the
	// agent's own state.
	Horizon() float64
}

// BulkStepper is an optional agent capability: advancing through n
// consecutive quiet ticks of dt seconds more cheaply than n Step calls,
// with bit-identical resulting state. Agents without the capability are
// stepped tick by tick.
type BulkStepper interface {
	// StepN advances the agent through n ticks of dt seconds. Precondition:
	// no event falls within n·dt — the agent's Horizon exceeds it by a
	// margin. StepN does not check it: the production loop's advanceAgent
	// sizes every chunk to end before the agent's calendar key — the
	// guarded whole-tick conversion of a horizon, never later than its next
	// event — or, for a dirty agent, from its horizon less ffGuard, and
	// steps event ticks singly. A chunk spanning an event would replay it as
	// if nothing happened. Work still waiting for a free server when StepN
	// starts must be promoted first, as the first Step would.
	StepN(n int, dt float64)
}

// QueueAgent is an agent that accepts work: a flow stage can target it.
//
// Enqueue owns its agent's place in the loop: it must first Sync, so the
// work lands on state caught up to the current tick, and must leave the
// agent active and keyed. Either it reports the arrival's first event
// through AgentBase.Arrive — the hardware agents' queue hooks do, with the
// bound FCFS/PS.SetNotify document, and stay silent for a task that waits
// behind work the active agent already holds, which moves no event — or it
// calls MarkDirty, which activates the agent and rekeys it from its horizon
// before the next jump. The flow router does neither: it hands the stage
// over and trusts the contract. DelayLine keeps MarkDirty: its horizon is
// the expiry less its local clock, (now+delay)−now, which can round below
// the delay, so reporting the delay would key it a tick late.
type QueueAgent interface {
	Agent
	Enqueue(*queueing.Task)
}

// AgentBase supplies the bookkeeping shared by all agents: identity, the
// completion buffer and active-set membership. Embed it and call InitAgent
// from the constructor.
type AgentBase struct {
	id   AgentID
	name string
	done []*queueing.Task

	sim       *Simulation // set by AddAgent; nil until registered
	active    bool        // currently a member of the simulation's active set
	pinned    bool        // never deactivated (swept every tick/window)
	dirty     bool        // horizon invalidated; queued for a calendar rekey
	listed    bool        // holds an entry in the simulation's active slice
	pendDrain bool        // queued in the drain set since the last drain
	inPinned  bool        // registered in the simulation's pinned list
}

// InitAgent sets the agent identity. It panics when called twice: an agent
// registered with two simulations is a wiring bug.
func (b *AgentBase) InitAgent(id AgentID, name string) {
	if b.name != "" {
		panic(fmt.Sprintf("core: agent %q re-initialized as %q", b.name, name))
	}
	if name == "" {
		panic("core: agent needs a non-empty name")
	}
	b.id = id
	b.name = name
}

// ID returns the agent's identifier.
func (b *AgentBase) ID() AgentID { return b.id }

// Name returns the agent's human-readable name.
func (b *AgentBase) Name() string { return b.name }

// Base returns the embedded bookkeeping, satisfying the Agent interface.
func (b *AgentBase) Base() *AgentBase { return b }

// MarkActive joins the simulation's active set, making the agent eligible
// for the next sweep, and invalidates the agent's event-calendar entry —
// every activation is also an invalidation: new work may move the agent's
// next event earlier. It is O(1), idempotent, and must only be called from
// sequential phases (Enqueue during source polls or interaction callbacks).
// Custom agents call it (as MarkDirty) from Enqueue; hardware queues report
// their arrivals through Arrive instead.
func (b *AgentBase) MarkActive() {
	if b.sim == nil {
		return
	}
	if !b.active {
		b.active = true
		b.sim.activate(b.id)
	}
	if !b.dirty {
		b.dirty = true
		b.sim.invalidate(b.id)
	}
}

// Arrive is the arrival hook of the event calendar, cheaper than MarkDirty:
// work was just enqueued on the agent (after Sync) and h bounds the arriving
// task's first event from below, in seconds. Hardware agents install it as
// their ingress queues' notify hook, which fires only for a task that can
// start at the next fill: one that waits behind busy servers lands on a
// queue that already holds work, so the agent is active and its key stands.
// An inactive agent activates keyed from h — it was idle, so h is its whole
// horizon; an active one lowers its key to h's when that is earlier, with no
// Horizon call and no drain-set entry (an enqueue buffers no completion).
// It is exact only if the arrival moves no other event of the agent
// earlier; state changes that can must use MarkDirty. Like MarkActive it
// must only be called from sequential phases.
func (b *AgentBase) Arrive(h float64) {
	if b.sim != nil {
		b.sim.arrive(b, h)
	}
}

// MarkDirty is the invalidation hook of the event calendar: it records that
// the agent's state changed in a way that may move its next observable
// event, so the simulation recomputes its horizon before the next jump
// instead of trusting the cached calendar entry. Activation implies
// invalidation, so MarkDirty and MarkActive are the same operation — the
// two names exist because call sites mean different things: queues notify
// transitions (dirty), sources and routers hand over work (active). A state
// change that may move an event sits between Sync and MarkDirty on its agent;
// the hardware rate methods (CPU.Derate and Reserve, RAID/SAN.Derate,
// Link.Degrade and Repair) place both calls themselves, so their callers need
// neither. Like MarkActive it must only be called from sequential phases;
// state changes inside the parallel Step phase need no hook, because they can
// only occur at an agent's scheduled event tick, where the loop rekeys the
// agent right after it acts.
func (b *AgentBase) MarkDirty() { b.MarkActive() }

// Pin keeps the agent in the active set permanently: it is swept every tick
// and never deactivated, restoring the pre-active-set full-sweep behavior
// for agents whose Step does work without queued tasks.
func (b *AgentBase) Pin() {
	b.pinned = true
	b.MarkActive()
	if b.sim != nil && !b.inPinned {
		b.inPinned = true
		b.sim.root.pinned = append(b.sim.root.pinned, b.id)
	}
}

// Horizon returns 0 — the conservative default that keeps an agent stepped
// every tick while it is active. Agents whose next event is knowable
// (hardware queues, delay lines) shadow this with an exact horizon so the
// fast-forward loop can jump quiet stretches; agents whose Step has
// per-tick side effects regardless of queued work (synthetic load
// generators) keep the default and thereby veto jumps while active.
func (b *AgentBase) Horizon() float64 { return 0 }

// Sync catches the agent up to the current simulation tick. The production
// loop steps an active agent lazily — advanced in bulk only when it next
// matters — so any operation that mutates or reads
// tick-dependent agent state from a sequential phase (an Enqueue, a local
// clock read) must first replay the ticks the involved-only sweeps skipped.
// Every Enqueue calls it first (QueueAgent); it is an O(1) no-op when the
// agent is current, inactive or unregistered, and on the reference loop.
func (b *AgentBase) Sync() {
	if b.sim != nil {
		b.sim.syncAgent(b.id)
	}
}

// BufferDone records a completed task for the simulation's next drain of
// the agent. Hardware agents pass this method as the DoneFunc of their
// internal queues.
func (b *AgentBase) BufferDone(t *queueing.Task) { b.done = append(b.done, t) }

// Drain hands buffered completions to fn in completion order and resets the
// buffer, retaining capacity.
func (b *AgentBase) Drain(fn func(*queueing.Task)) {
	for i, t := range b.done {
		b.done[i] = nil
		fn(t)
	}
	b.done = b.done[:0]
}

// Engine parallelizes the reference loop's per-tick sweep over the active
// agents — the phase Chapter 4 of the thesis parallelizes, where every tick
// steps every active agent. Implementations: SequentialEngine (here); in
// internal/dispatch, H-Dispatch — Scatter-Gather is H-Dispatch at one agent
// per work item — and Sharded, which share one worker pool.
//
// Only the reference loop (LoopFlags.NoFastForward) calls Bind and Sweep,
// once per tick. The production window loop steps the few agents a window
// involves itself and calls nothing on the engine but Shutdown, so which
// engine a production run carries never shows in its results or its cost.
type Engine interface {
	// Bind hands the engine the full agent population so it can size
	// per-agent resources; the engines here keep none. Called once before
	// the first sweep and again whenever the population changes.
	Bind(agents []Agent)
	// Sweep applies fn to every agent in active — the simulation's current
	// active set, always a subset of the bound population in ascending
	// AgentID order. fn is safe to run in parallel for distinct agents.
	Sweep(active []Agent, fn func(Agent))
	// Shutdown releases engine resources (worker pools).
	Shutdown()
}

// ShardRunner is the capability of an engine that runs one function per
// shard as a fork-join over a fixed worker pool (dispatch.Sharded); which
// worker runs a shard is not fixed. Nothing in the simulator calls it; it
// exists only because the benchmark harness (bench/) compiles against it.
type ShardRunner interface {
	Engine
	ShardCount() int
	RunShards(fn func(shard int))
}

// SequentialEngine applies the sweep on the calling goroutine. It is the
// reference implementation that the parallel engines must match exactly,
// and the default engine.
type SequentialEngine struct{}

// Bind is a no-op: the sequential engine needs no per-agent resources.
func (e *SequentialEngine) Bind(agents []Agent) {}

// Sweep applies fn to each active agent in order.
func (e *SequentialEngine) Sweep(active []Agent, fn func(Agent)) {
	for _, a := range active {
		fn(a)
	}
}

// Shutdown is a no-op for the sequential engine.
func (e *SequentialEngine) Shutdown() {}
