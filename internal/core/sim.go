package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// Source injects work into the simulation. Sources are polled in the
// sequential phase, before the agent sweep: workload generators start
// client operations, background daemons launch SYNCHREP/INDEXBUILD jobs.
type Source interface {
	Poll(s *Simulation, now float64)
	// NextPoll reports the earliest simulated time at which a future Poll
	// may have an observable effect (launch work, draw randomness, move a
	// gauge), given that the source was just polled at now. Polls strictly
	// before the returned instant must be no-ops; the event-horizon
	// fast-forward relies on that contract to skip them wholesale.
	// Returning now (or any instant within the next step) keeps classic
	// per-tick polling. +Inf parks the source: the production loop will not
	// consult it again, so a source that is merely dormant — re-armed by a
	// completion callback rather than exhausted — must have that callback
	// invoke Simulation.RearmSource with the handle AddSource returned.
	NextPoll(now float64) float64
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(s *Simulation, now float64)

// Poll calls f.
func (f SourceFunc) Poll(s *Simulation, now float64) { f(s, now) }

// NextPoll returns now: an adapted function gives no schedule information,
// so it is conservatively polled every tick and vetoes fast-forward jumps.
func (f SourceFunc) NextPoll(now float64) float64 { return now }

// Config parameterizes a Simulation.
type Config struct {
	// Step is the time-loop granularity in seconds (§4.3.1 recommends at
	// least one order of magnitude below the canonical operation costs).
	Step float64
	// CollectEvery is the number of ticks between collector snapshots.
	CollectEvery int
	// Seed feeds the simulation's deterministic RNG streams.
	Seed uint64
	// Engine parallelizes the reference loop's agent sweeps; nil selects
	// SequentialEngine. The production loop does not sweep through it.
	Engine Engine
	// LoopFlags selects the time loop; the zero value selects the
	// production loop.
	LoopFlags
}

// LoopFlags selects the time loop, declared here once and embedded by
// every layer's configuration (Config, experiment.LoopFlags, the scenario
// configs). The zero value selects the production loop. Every other
// mechanism is switched by its own input — thinning by
// workload.AppWorkload.ThinBelow, faults by their injections, the fluid
// tier by Fluid.Above — never by a loop flag.
type LoopFlags struct {
	// NoFastForward selects the reference loop: the plain §4.3 tick loop —
	// every source polled, every active agent stepped and drained, every
	// tick — in place of the window loop. Results are bit-identical either
	// way; it is the oracle the equivalence tests compare the production
	// loop against, and the only loop that sweeps through the configured
	// Engine.
	NoFastForward bool
}

// Simulation owns the discrete time loop and everything attached to it:
// agents, sources, collector, response tracker and RNG. It is not safe for
// concurrent use; an engine's parallelism is internal to the reference
// loop's sweep phase.
type Simulation struct {
	clock   *simtime.Clock
	engine  Engine
	rebind  bool
	agents  []Agent
	sources []Source

	// bases is the dense agent table: bases[id] is the AgentBase of agents[id],
	// resolved once at registration so the loop's per-agent state (active,
	// dirty, tick) is read through a slice instead of an interface call.
	bases []*AgentBase

	// err is the first fatal error a control point reported (Fail); the run
	// loops stop at the next window boundary once it is set.
	err error

	// root is the loop state: the event calendar, which is the production
	// loop's active set, the dirty and involved sets, the flow counters and
	// the token pool. Its tick mirrors the clock. The reference loop uses
	// only its active list and counters.
	root window

	Collector *metrics.Collector
	Responses *metrics.Responses

	collectEvery simtime.Tick
	seed         uint64
	rng          *rand.Rand

	fastForward bool // production window loop (LoopFlags.NoFastForward off)

	// sweep is the agent list the reference tick hands the engine.
	sweep []Agent

	// srcDue caches each source's due tick (first tick whose Poll may have
	// an observable effect). Sources reporting +Inf are parked until
	// RearmSource re-consults them.
	srcDue []simtime.Tick

	gaugeIdx  map[string]Gauge
	gaugeVals []float64
}

// NewSimulation builds a simulation from the configuration, applying
// defaults: 10 ms step, snapshot every 100 ticks, sequential engine.
func NewSimulation(cfg Config) *Simulation {
	if cfg.Step <= 0 {
		cfg.Step = 0.01
	}
	if cfg.CollectEvery <= 0 {
		cfg.CollectEvery = 100
	}
	eng := cfg.Engine
	if eng == nil {
		eng = &SequentialEngine{}
	}
	s := &Simulation{
		clock:        simtime.NewClock(cfg.Step),
		engine:       eng,
		Collector:    metrics.NewCollector(),
		Responses:    metrics.NewResponses(),
		collectEvery: simtime.Tick(cfg.CollectEvery),
		seed:         cfg.Seed,
		rng:          rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		gaugeIdx:     make(map[string]Gauge),
		fastForward:  !cfg.NoFastForward,
	}
	s.root = window{s: s, srcMin: neverTick, nextSnap: nextCollectBoundary(0, s.collectEvery), resp: s.Responses}
	return s
}

// Clock exposes the simulation clock (read-only use by callers).
func (s *Simulation) Clock() *simtime.Clock { return s.clock }

// RNG returns the simulation's deterministic random stream. It must only be
// used from sequential phases (sources, expansion, completion callbacks).
// Components that need their own stream should not consume draws from it —
// that couples them to every other consumer's draw count; they derive an
// independent seed with DeriveSeed(Seed(), stream) instead.
func (s *Simulation) RNG() *rand.Rand { return s.rng }

// Seed returns the seed the simulation was configured with — the base that
// sub-RNG creation sites pass to DeriveSeed.
func (s *Simulation) Seed() uint64 { return s.seed }

// NextAgentID reserves the next agent identifier.
func (s *Simulation) NextAgentID() AgentID { return AgentID(len(s.agents)) }

// ReserveAgents makes room for n more agents in the agent tables and the
// event calendar's slot table, so that registering them — and the loop
// later sizing its calendar to them — grows nothing. A caller that knows
// its agent count up front (topology.Build counts its spec) reserves it
// once instead of paying every doubling; registering past the reservation
// still works, at append's usual cost. What follows the load — the
// involved set, the calendar's heap tier — still grows to the run's peak.
func (s *Simulation) ReserveAgents(n int) {
	s.agents = slices.Grow(s.agents, n)
	s.bases = slices.Grow(s.bases, n)
	s.root.cal.reserve(len(s.agents) + n)
}

// AddAgent registers an agent. The agent must have been initialized with
// the ID returned by the immediately preceding NextAgentID call.
func (s *Simulation) AddAgent(a Agent) {
	if got, want := a.ID(), AgentID(len(s.agents)); got != want {
		panic(fmt.Sprintf("core: agent %q registered with ID %d, want %d", a.Name(), got, want))
	}
	b := a.Base()
	s.agents = append(s.agents, a)
	s.bases = append(s.bases, b)
	b.sim = s
	if !a.Idle() {
		b.MarkDirty() // never idle, or pre-loaded before registration
	}
	s.rebind = true
}

// activate counts an agent into the active set; the caller has just set its
// active flag. Callers go through AgentBase.MarkDirty or arrive, which key
// it into the calendar — the production loop's active set — or append it to
// the reference loop's active list here. An agent activates "current": its
// state has trivially been stepped through the window's tick, so lazy
// catch-up starts from here.
func (s *Simulation) activate(b *AgentBase) {
	w := &s.root
	w.live++
	b.tick = w.tick
	if !s.fastForward {
		w.active = append(w.active, b.id)
	}
}

// invalidate queues an agent for a calendar rekey. Callers go through
// AgentBase.MarkDirty, which gates duplicates. The reference loop keeps no
// calendar.
func (s *Simulation) invalidate(id AgentID) {
	if s.fastForward {
		s.root.dirty = append(s.root.dirty, id)
	}
}

// arrive keys an agent the flow router has just synced and enqueued on,
// from the bound h its Enqueue reported (QueueAgent). Rekey marks it dirty.
// An inactive agent was idle, so h is its whole horizon: it activates keyed
// from h. An active agent's key drops to h's when that is earlier — by the
// QueueAgent contract the arrival moves no other event earlier, and +Inf, a
// task that waits, moves nothing — and a dirty agent is left to its pending
// rekey. The reference loop keeps no calendar and only activates.
func (s *Simulation) arrive(b *AgentBase, h float64) {
	if h < 0 {
		b.MarkDirty()
		return
	}
	w := &s.root
	if !b.active {
		b.active = true
		s.activate(b)
		if s.fastForward {
			w.cal.grow(len(s.agents))
			w.cal.set(b.id, s.agentKey(h, w.tick))
		}
		return
	}
	if b.dirty || !s.fastForward {
		return
	}
	if k := s.agentKey(h, b.tick); k < w.cal.key(b.id) {
		w.cal.set(b.id, k)
	}
}

// ActiveAgents reports the current size of the active set.
func (s *Simulation) ActiveAgents() int { return s.root.live }

// SourceHandle identifies a registered source. Handles are 1-based so the
// zero value means "none"; they are returned by AddSource and consumed by
// RearmSource.
type SourceHandle int

// AddSource registers a work source and returns its handle. The production
// loop polls a source whenever its NextPoll schedule is due, starting at
// the next tick boundary; the reference loop polls every source every
// tick. A source whose NextPoll returns +Inf is parked: it is not
// re-consulted until RearmSource is called with its handle, so a source
// that goes dormant and is re-armed by a completion callback must notify
// the simulation from that callback.
func (s *Simulation) AddSource(src Source) SourceHandle {
	s.sources = append(s.sources, src)
	due := s.clock.Now()
	s.srcDue = append(s.srcDue, due)
	if due < s.root.srcMin {
		s.root.srcMin = due
	}
	return SourceHandle(len(s.sources))
}

// RearmSource re-consults a parked source's NextPoll schedule. Completion
// callbacks that re-arm a dormant (+Inf-schedule) source call it so the
// loop picks the new schedule up without re-polling every dormant source
// in every window; it is harmless (and cheap) to call for a source that
// never went dormant. The zero handle is a no-op, and the reference loop —
// which polls everything every tick anyway — ignores it.
func (s *Simulation) RearmSource(h SourceHandle) {
	if h <= 0 || int(h) > len(s.sources) || !s.fastForward {
		return
	}
	i := int(h) - 1
	due := s.srcDueTick(s.sources[i].NextPoll(s.clock.NowSeconds()), s.clock.Now())
	s.srcDue[i] = due
	if due < s.root.srcMin {
		s.root.srcMin = due
	}
}

// StartOp launches an operation instance now. Must be called from a
// sequential phase (a Source poll or a completion callback).
func (s *Simulation) StartOp(op OpRun) { s.startOp(op) }

// ActiveFlows reports the number of in-flight operations.
func (s *Simulation) ActiveFlows() int { return s.root.flows }

// CompletedOps reports the total number of finished operations.
func (s *Simulation) CompletedOps() uint64 { return s.root.completed }

// Gauge is an interned handle to a named simulation gauge: an index into a
// dense value slice, so per-flow accounting on the hot path avoids the map
// lookup of the string-keyed API. The zero value is "no gauge".
type Gauge int

// GaugeHandle interns key and returns its handle. Handles are stable for
// the simulation's lifetime; interning the same key twice returns the same
// handle. Hot paths should intern once and use the handle-based methods.
func (s *Simulation) GaugeHandle(key string) Gauge {
	if key == "" {
		return 0
	}
	if g, ok := s.gaugeIdx[key]; ok {
		return g
	}
	s.gaugeVals = append(s.gaugeVals, 0)
	g := Gauge(len(s.gaugeVals)) // 1-based so the zero Gauge means "none"
	s.gaugeIdx[key] = g
	return g
}

// AddGaugeBy adjusts the gauge behind a handle by delta. A zero handle is a
// no-op, so callers can pass an unset optional gauge unconditionally.
func (s *Simulation) AddGaugeBy(g Gauge, delta float64) {
	if g != 0 {
		s.gaugeVals[g-1] += delta
	}
}

// GaugeValueBy reads the gauge behind a handle (0 for the zero handle).
func (s *Simulation) GaugeValueBy(g Gauge) float64 {
	if g == 0 {
		return 0
	}
	return s.gaugeVals[g-1]
}

// GaugeValue reads a named gauge (0 when never set).
func (s *Simulation) GaugeValue(key string) float64 { return s.GaugeValueBy(s.GaugeHandle(key)) }

// GaugeProbe returns a collector probe sampling the named gauge, for
// concurrent-client series (Fig. 5-6). The handle is resolved once.
func (s *Simulation) GaugeProbe(key string) metrics.Probe {
	g := s.GaugeHandle(key)
	return metrics.Probe{Key: key, Sample: metrics.SampleFunc(func(float64) float64 { return s.GaugeValueBy(g) })}
}

// Tick advances the simulation by exactly one step. Direct callers always
// get a single step; fast-forward jumps only happen inside RunFor and
// RunUntilIdle, which pass their end tick as the window bound.
func (s *Simulation) Tick() { s.step(s.clock.Now() + 1) }

// step advances the simulation by one window landing no later than limit,
// or by one reference tick.
func (s *Simulation) step(limit simtime.Tick) {
	if s.fastForward {
		s.runWindow(limit)
	} else {
		s.tick()
	}
}

// tick is the reference loop (LoopFlags.NoFastForward): the thesis §4.3
// time step written as plainly as it reads — poll every source, step every
// active agent, drain every active agent in ascending ID order, drop the
// ones that went idle, snapshot at collector boundaries. It keeps no
// calendar, skips nothing and steps nothing lazily, which is what makes it
// the oracle the equivalence tests digest-compare the window loop against.
// It is the only caller of Engine.Bind and Engine.Sweep: the per-tick sweep
// over every active agent is the phase the Chapter-4 engines parallelize.
func (s *Simulation) tick() {
	w := &s.root
	now := s.clock.NowSeconds()
	for _, src := range s.sources { // sources added by a poll are first polled next tick
		src.Poll(s, now)
	}
	// Rebind after the polls: sources may register agents that are
	// activated into this very tick's sweep, and an engine may size
	// per-agent resources from the bound population.
	if s.rebind {
		s.engine.Bind(s.agents)
		s.rebind = false
	}
	slices.Sort(w.active)
	s.sweep = s.sweep[:0]
	for _, id := range w.active {
		s.sweep = append(s.sweep, s.agents[id])
	}
	dt := s.clock.Step()
	s.engine.Sweep(s.sweep, func(a Agent) { a.Step(dt) })
	w.tick = s.clock.AdvanceBy(1)
	// Agents activated by the drain join the active list beyond this tick's
	// sweep and are first served next tick (§4.3.3 timestamp rule).
	for _, a := range s.sweep {
		s.drainDone(a.Base())
	}
	kept := w.active[:0]
	for i, a := range s.sweep {
		if b := a.Base(); !a.Idle() {
			kept = append(kept, w.active[i])
		} else {
			b.active = false
			w.live--
		}
	}
	w.active = append(kept, w.active[len(s.sweep):]...)
	if w.tick%s.collectEvery == 0 {
		s.Collector.Snapshot(s.clock.NowSeconds())
	}
}

// runWindow drives one window of the production loop on the root window.
// Instead of stepping and draining every active agent every tick, a window
// skips every tick that provably holds no event, lands on the first one that
// may (window.jump: the calendar head, a due poll, a collector boundary or
// the limit), and steps only the agents that can act there — the calendar
// entries due at the landing. Each of them is rekeyed from its horizon, or
// retired, as soon as it reaches the landing (window.settle). Every other
// active agent — every other calendar member — is left untouched and caught
// up in one key-bounded bulk replay when it next matters: it is enqueued on,
// pops due, or a collector boundary or the run end lands. The drain walks
// the popped-due set. The dirty agents are rekeyed once per window, before
// the jump that reads the calendar head.
//
// The invariants that make laziness exact:
//
//   - An active agent's calendar key is never later than the first tick it
//     may act, computed relative to AgentBase.tick (the tick its state has
//     advanced through). While its key lies beyond the clock it has no
//     event in the trailing ticks, so a bulk replay of the deficit is
//     bit-identical to having stepped it every tick — the same
//     per-accumulator operation sequence, merely batched. Arrivals keep it
//     so: the flow router lowers the key to the bound on the arriving
//     task's first event that Enqueue reports (arrive); everything else
//     that may move an event earlier marks the agent dirty for a full
//     rekey.
//   - Mutating or reading an agent's tick-dependent state from a
//     sequential phase is always preceded by a catch-up (syncAgent, which
//     the flow router runs before every Enqueue and AgentBase.Sync exposes
//     to the rate methods), so enqueues land on state identical to the
//     reference loop's.
//   - Only agents at their event tick can buffer completions, and those
//     are exactly the popped-due set (an enqueue buffers none). Lazy agents
//     therefore never hold completions, and skipping their drain is exact.
//   - Skipped polls are no-ops by the Source.NextPoll contract.
//
// The involved agents are advanced right here, on the calling goroutine: a
// window involves a handful of agents (about seven on the consolidation
// peak hour), far below what a fork or a barrier costs, so the production
// loop never sweeps through the engine.
func (s *Simulation) runWindow(limit simtime.Tick) {
	w := &s.root
	w.pollDue()
	w.rekey()
	landing := w.tick + w.jump(limit)
	due := w.popInvolved(landing, limit)
	for _, id := range w.inv {
		s.advanceAgentTo(s.bases[id], landing)
		w.settle(id, landing)
	}
	w.tick = s.clock.AdvanceBy(landing - w.tick)

	w.drain(w.inv[:due])
	if w.tick == w.nextSnap {
		w.nextSnap += s.collectEvery
		s.Collector.Snapshot(s.clock.NowSeconds())
	}
}

// syncAgent catches a lazily-stepped active agent up to its window's tick.
// It is the sequential-phase entry point of lazy stepping (reached through
// the flow router and AgentBase.Sync): any enqueue or tick-dependent read
// must first replay the ticks the involved-only sweeps skipped, on state
// that — by the calendar invariant — holds no event in them. Inactive
// agents have no queue state evolving, so they are left alone (activation
// re-bases AgentBase.tick). The reference loop steps every active agent
// every tick and never advances AgentBase.tick, so it has nothing to catch
// up.
func (s *Simulation) syncAgent(b *AgentBase) {
	// The common case — agent already current — exits here, inlined into
	// the caller: it sits on every enqueue.
	if s.root.tick > b.tick {
		s.catchUp(b)
	}
}

// catchUp is syncAgent out of line: replay the agent's deficit if it is
// active on the production loop. It is kept out of line on purpose: inlined,
// it would push syncAgent past the inlining budget.
//
//go:noinline
func (s *Simulation) catchUp(b *AgentBase) {
	if s.fastForward && b.active {
		s.advanceAgentTo(b, s.root.tick)
	}
}

// advanceAgentTo steps one agent through any lazy deficit up to the given
// tick, from the window's advance phase or from a sequential catch-up.
func (s *Simulation) advanceAgentTo(b *AgentBase, to simtime.Tick) {
	if base := b.tick; to > base {
		b.tick = to
		s.advanceAgent(b.id, base, to-base)
	}
}

// advanceAgent replays n ticks on one agent starting from the base tick
// (the tick its state is currently stepped through), bulk-collapsing the
// quiet stretch in front of its next possible event into one chunk
// (quietTicks) and resolving event ticks with single steps. Landings never
// pass the calendar head, so a chunk is followed by at most one single
// step, and only a dirty agent — whose key is stale — reads its horizon
// here. Agents without the BulkStepper capability replay tick by tick. It
// only touches the agent's own state.
func (s *Simulation) advanceAgent(id AgentID, base, n simtime.Tick) {
	a := s.agents[id]
	step := s.clock.Step()
	bs, bulk := a.(BulkStepper)
	for n > 0 {
		var k simtime.Tick
		if bulk && n > 1 {
			k = s.quietTicks(id, base, n)
		}
		if k < 1 {
			a.Step(step)
			k = 1
		} else {
			bs.StepN(int(k), step)
		}
		n -= k
		base += k
	}
}

// quietTicks returns how many of the n ticks after base the agent can
// replay in one bulk chunk: every tick before its calendar key. An agent
// without an entry was popped due at the landing base+n, so all but that
// tick are quiet. A dirty agent's key may be stale, so its
// chunk is sized from its horizon by the guarded whole-tick conversion the
// keys use, which can never swallow an event.
func (s *Simulation) quietTicks(id AgentID, base, n simtime.Tick) simtime.Tick {
	c := &s.root.cal
	if !s.bases[id].dirty {
		if !c.contains(id) {
			return n - 1
		}
		return min(n, c.key(id)-base-1)
	}
	if h := s.agents[id].Horizon(); !math.IsInf(h, 1) {
		return min(n, s.clock.WholeTicksBefore(h-ffGuard))
	}
	return n
}

// ffGuard is the safety margin, in seconds, subtracted from agent horizons
// before converting them to whole ticks. Queue models complete work within
// a sub-epsilon of the exact instant (the eps thresholds in
// internal/queueing and the delay heap), and a replayed jump accumulates
// per-step float error; the guard absorbs both so an event can never fire
// inside the ticks a jump skips. It is orders of magnitude below any
// realistic step size, so it almost never shortens a jump.
const ffGuard = 1e-6

// srcDueTick converts a NextPoll instant into the first tick whose poll may
// matter: the first tick at or after p in the exact tick-time arithmetic
// the loop uses for poll timestamps (Clock.TickAt, one past it when p falls
// inside its tick), so every earlier tick — the polls a jump skips — falls
// strictly before p. A source reporting now or earlier wants classic
// per-tick polling and is due again at the next tick; +Inf (and schedules
// beyond any representable run) map to neverTick.
func (s *Simulation) srcDueTick(p float64, now simtime.Tick) simtime.Tick {
	n := s.clock.TickAt(p)
	if n >= 1<<62 {
		return neverTick
	}
	if s.clock.SecondsAt(n) < p {
		n++
	}
	return max(n, now+1)
}

// agentKey converts an agent horizon, observed at tick now, into the
// calendar key: the first tick at which the agent may act, one past the
// whole ticks strictly before the guarded horizon. Jumps land on it at the
// latest.
func (s *Simulation) agentKey(h float64, now simtime.Tick) simtime.Tick {
	if math.IsInf(h, 1) {
		return neverTick
	}
	return now + s.clock.WholeTicksBefore(h-ffGuard) + 1
}

// nextCollectBoundary returns the first collector-snapshot tick strictly
// after now: a window standing exactly on a boundary has already
// snapshotted it, so the next synchronization point is one full period
// ahead, never the current tick — otherwise a jump would swallow a snapshot
// tick or stop a boundary early. The window loop caches it (window.nextSnap)
// and steps it by one period per snapshot.
func nextCollectBoundary(now, every simtime.Tick) simtime.Tick {
	return now + (every - now%every)
}

// RunStats is a point-in-time snapshot of a simulation's run counters — the
// uniform harvest the experiment layer folds into every Result so scenario
// code stops re-assembling the numbers from individual accessors.
type RunStats struct {
	// Seconds is the simulated time reached; Ticks the whole steps taken.
	Seconds float64 `json:"seconds"`
	Ticks   int64   `json:"ticks"`
	// CompletedOps counts finished operations — the headline number of the
	// engine determinism contract.
	CompletedOps uint64 `json:"completed_ops"`
	// ActiveFlows / ActiveAgents describe the in-flight state at snapshot
	// time (zero after a drained run).
	ActiveFlows  int `json:"active_flows"`
	ActiveAgents int `json:"active_agents"`
	// Agents is the registered agent population.
	Agents int `json:"agents"`
	// Jumps / SkippedTicks are the event-horizon fast-forward statistics:
	// how many jumps the loop took and how many whole ticks they skipped.
	Jumps        uint64 `json:"jumps"`
	SkippedTicks uint64 `json:"skipped_ticks"`
	// Deprecated: always 0. Barriers, WindowsStretched and MailboxApplied
	// counted the synchronization points of the sharded span runtime, which
	// was removed; they are kept only because the benchmark harness reads
	// them.
	Barriers uint64 `json:"barriers,omitempty"`
	// Deprecated: always 0 (see Barriers).
	WindowsStretched uint64 `json:"windows_stretched,omitempty"`
	// Deprecated: always 0 (see Barriers).
	MailboxApplied uint64 `json:"mailbox_applied,omitempty"`
}

// Stats snapshots the simulation's run counters.
func (s *Simulation) Stats() RunStats {
	return RunStats{
		Seconds:      s.clock.NowSeconds(),
		Ticks:        int64(s.clock.Now()),
		CompletedOps: s.root.completed,
		ActiveFlows:  s.root.flows,
		ActiveAgents: s.root.live,
		Agents:       len(s.agents),
		Jumps:        s.root.jumps,
		SkippedTicks: s.root.skipped,
	}
}

// OpError is the fatal error of an operation that could not continue: the
// operation's name, the client's data center and the simulated second at
// which its step failed to expand, around the cause.
type OpError struct {
	Op, DC string
	At     float64
	Err    error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("core: operation %q from %s at t=%.2fs: %v", e.Op, e.DC, e.At, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// Fail records a fatal error: a condition the simulated platform cannot
// recover from (a cascade step with no surviving route). The first error
// wins. The window in progress completes normally; RunFor and RunUntilIdle
// stop at its boundary, and a failed simulation does not advance again. It
// must be called from a sequential phase — the control points that can fail
// (cross-DC step expansion) only run there.
func (s *Simulation) Fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err returns the simulation's fatal error, nil while it is healthy.
func (s *Simulation) Err() error { return s.err }

// RunFor advances the simulation by d simulated seconds, or until a fatal
// error (Err) stops it. Knowing its end, it first reserves room in the
// collector for every snapshot boundary in (now, end], so the run's
// snapshots grow no series; Collector.Reserve keeps that amortised across
// many short calls.
func (s *Simulation) RunFor(d float64) {
	now := s.clock.Now()
	end := now + s.clock.TicksIn(d)
	if end > now {
		s.Collector.Reserve(int(end/s.collectEvery - now/s.collectEvery))
	}
	for s.clock.Now() < end && s.err == nil {
		s.step(end)
	}
}

// RunUntilIdle runs until no flows remain in flight and all agents are
// idle, or maxSeconds of simulated time elapse. It returns an error on
// timeout so stuck cascades surface in tests instead of hanging, and the
// fatal error (Err) when one stopped the run.
func (s *Simulation) RunUntilIdle(maxSeconds float64) error {
	deadline := s.clock.Now() + s.clock.TicksIn(maxSeconds)
	for s.clock.Now() < deadline && s.err == nil {
		s.step(deadline)
		if s.idle() {
			return nil
		}
	}
	if s.err != nil {
		return s.err
	}
	// A budget that rounds to zero ticks leaves the loop without testing.
	if s.idle() {
		return nil
	}
	return fmt.Errorf("core: %d flows still active after %v simulated seconds", s.root.flows, maxSeconds)
}

// idle reports whether no flow is in flight and no agent holds work.
// Deactivation keeps every non-idle agent active, so only the agents with
// their active flag set need checking.
func (s *Simulation) idle() bool {
	if s.root.flows != 0 {
		return false
	}
	for id, b := range s.bases {
		if b.active && !s.agents[id].Idle() {
			return false
		}
	}
	return true
}

// AgentCount reports the registered agent population, sizing external
// per-agent tables.
func (s *Simulation) AgentCount() int { return len(s.agents) }

// Shutdown releases engine resources. The simulation must not tick after.
func (s *Simulation) Shutdown() { s.engine.Shutdown() }
