// Package core implements the simulation heart of GDISim: the agent
// abstraction of the Holonic Multi-Agent System (§3.3), the flow machinery
// that executes message cascades across hardware agents (§3.5.2), and the
// centralized discrete time loop with its three control phases (§4.3):
//
//  1. Time increment — every *active* agent (one with in-flight work)
//     advances its queues by one step. Idle agents are skipped: an agent
//     joins the active set when work is enqueued on it and leaves it when it
//     is found idle right after it steps — on the production loop as soon as
//     it reaches its window's landing, before the drain; on the reference
//     loop in a post-drain scan — so the sweep cost scales with
//     utilization rather than topology size. On the reference loop the
//     phase runs through a pluggable Engine (sequential here; the Chapter-4
//     Scatter-Gather and H-Dispatch engines live in internal/dispatch); the
//     production loop steps agents itself on the calling goroutine.
//  2. Measurement collection — every collect-interval, probes snapshot
//     integrated busy time into time series.
//  3. Agent interaction — tasks that completed during the step advance
//     their flows and enqueue work on downstream agents. Work forwarded
//     during tick t is first served at tick t+1, enforcing the timestamp
//     consistency rule of §4.3.3. The flow router is the one place work
//     arrives: it syncs the target agent, enqueues, and keys the agent from
//     the arrival's bound (QueueAgent), so agents and queues know nothing of
//     the loop's laziness.
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
	"repro/internal/simtime"
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
// when work is enqueued on it (or it is marked dirty) and leaves it when it
// reports Idle right after it steps. An agent that must be stepped every tick
// regardless of queued work (a synthetic load generator, a polling
// component) never reports Idle and keeps the default Horizon of 0.
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
	// arrival is keyed from the bound its Enqueue reports (QueueAgent), so
	// the calendar key is the only horizon the loop otherwise consults. Like
	// Step it must only touch the agent's own state.
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
// The flow router (Simulation.startStage) owns the agent's place in the
// loop when it hands over a stage: it syncs the agent to the current tick,
// calls Enqueue, and keys the agent from what Enqueue returns. Enqueue only
// admits the task and reports when the arrival may first act: a lower bound
// h, in seconds, on the task's first event — hardware agents return their
// ingress queue's FCFS/PS.Admit — or +Inf when the task waits behind work
// the agent already holds, which moves no event, or Rekey when the agent's
// next event must be read from its Horizon. A bound may undershoot the
// task's first event but never pass it, and the arrival must move none of
// the agent's other events earlier: the router only lowers the agent's key
// to the bound's and reads no Horizon. DelayLine returns Rekey: its horizon
// is the expiry less its local clock, (now+delay)−now, which can round below
// the delay, so reporting the delay would key it a tick late.
type QueueAgent interface {
	Agent
	Enqueue(*queueing.Task) float64
}

// Rekey is the QueueAgent.Enqueue report that the arrival may have moved
// the agent's next event anywhere: the router marks the agent dirty, and the
// loop rekeys it from its Horizon before the next jump.
const Rekey = -1.0

// AgentBase supplies the bookkeeping shared by all agents: identity, the
// completion buffer and active-set membership. Embed it and call InitAgent
// from the constructor.
type AgentBase struct {
	id   AgentID
	name string
	done queueing.TaskList

	sim    *Simulation  // set by AddAgent; nil until registered
	active bool         // currently a member of the simulation's active set
	dirty  bool         // horizon invalidated; queued for a calendar rekey
	tick   simtime.Tick // the tick the agent's state has been stepped through, while active
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

// MarkDirty is the invalidation hook of the event calendar: it records that
// the agent's state changed in a way that may move its next observable
// event, so the simulation recomputes its horizon before the next jump
// instead of trusting the cached calendar entry. An inactive agent also
// joins the active set — on the production loop the calendar, where that
// rekey files it — making it eligible for the next window or sweep. A state
// change that may move an event sits between Sync and MarkDirty on its
// agent, so a dirty agent is current when the loop rekeys it; the hardware
// rate methods (CPU.Derate and Reserve, RAID/SAN.Derate, Link.Degrade and
// Repair) place both calls themselves, so their callers need neither. Work
// handed over by a flow needs neither either: the router syncs and keys the
// agent (QueueAgent). MarkDirty is O(1) and idempotent, a no-op before the
// agent is registered, and must only be called from sequential phases; state
// changes inside the parallel Step phase need no hook, because they can only
// occur at an agent's scheduled event tick, where the loop rekeys the agent
// right after it acts.
func (b *AgentBase) MarkDirty() {
	if b.sim == nil {
		return
	}
	if !b.active {
		b.active = true
		b.sim.activate(b)
	}
	if !b.dirty {
		b.dirty = true
		b.sim.invalidate(b.id)
	}
}

// Horizon returns 0 — the conservative default that keeps an agent stepped
// every tick while it is active. Agents whose next event is knowable
// (hardware queues, delay lines) shadow this with an exact horizon so the
// fast-forward loop can jump quiet stretches; agents whose Step has
// per-tick side effects regardless of queued work (synthetic load
// generators) keep the default and thereby veto jumps while active. Such an
// agent that never reports Idle is activated when it registers and is
// stepped in every window and every reference tick.
func (b *AgentBase) Horizon() float64 { return 0 }

// Sync catches the agent up to the current simulation tick. The production
// loop steps an active agent lazily — advanced in bulk only when it next
// matters — so any operation that mutates or reads tick-dependent agent
// state from a sequential phase (a rate change, a local clock read) must
// first replay the ticks the involved-only sweeps skipped. The flow router
// does it for every Enqueue it makes (QueueAgent); it is an O(1) no-op when
// the agent is current, inactive or unregistered, and on the reference loop.
func (b *AgentBase) Sync() {
	if b.sim != nil {
		b.sim.syncAgent(b)
	}
}

// BufferDone records a completed task for the simulation's next drain of
// the agent. Hardware agents pass this method as the DoneFunc of their
// internal queues. The buffer links the tasks themselves (queueing.TaskList),
// so buffering allocates nothing.
func (b *AgentBase) BufferDone(t *queueing.Task) { b.done.Push(t) }

// Drain hands buffered completions to fn in completion order, emptying the
// buffer. Each task leaves the buffer before fn sees it, so fn may enqueue
// it anywhere.
func (b *AgentBase) Drain(fn func(*queueing.Task)) {
	for t := b.done.Pop(); t != nil; t = b.done.Pop() {
		fn(t)
	}
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
