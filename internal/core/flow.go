package core

import (
	"fmt"

	"repro/internal/queueing"
)

// Occupancy is a resource a message holds across a run of consecutive
// stages — a server's memory during processing (Fig. 3-5). The flow
// machinery calls it in the sequential phase with the amount its hold span
// carries.
type Occupancy interface {
	Acquire(amount float64)
	Release(amount float64)
}

// Stage is one hop of a message through the infrastructure: a piece of work
// performed by a single hardware agent (NIC transmit, link transit, CPU
// service, storage access) or a pure delay (client-side think/render time).
// Stages are produced by the topology router when it expands a cascade
// message into the agents along the route (§3.3.2). A stage is 24 bytes —
// the message's whole per-hop state — and memory occupancy lives beside the
// stages, in MessagePlan.Holds.
type Stage struct {
	// Queue is the agent that serves this stage. A nil Queue makes the
	// stage instantaneous: its hold spans open and close and the token
	// advances within the same interaction phase.
	Queue QueueAgent
	// Demand is the work amount in the target agent's units (cycles for
	// CPUs, bits for network elements, bytes for storage), or the fixed
	// latency in seconds when Queue is a DelayLine.
	Demand float64
}

// Hold is an occupancy a message holds across a run of its stages: Amount
// is acquired from Occ when stage From starts and released when stage To
// completes. From and To index the plan's Stages, From <= To; the router
// opens a span on the first and closes it on the last processing stage at a
// server, and a lone processing stage is a span of one. Spans opening (or
// closing) at the same stage do so in plan order.
type Hold struct {
	Occ      Occupancy
	Amount   float64
	From, To int32
}

// MessagePlan is a fully-expanded message of a cascade: the ordered stages
// it traverses from origin to destination holon, and the occupancy spans it
// holds along the way — one per server a hop is processed at, so a plan
// that chains several hops holds several.
type MessagePlan struct {
	Stages []Stage
	Holds  []Hold
}

// Expander expands the steps of one operation instance. The flow calls
// Expand with strictly increasing steps, and step k+1 only after every
// message of step k has finished, so the plans of step k are dead once step
// k+1 is expanded: an implementation may reuse the returned slice and the
// stage storage behind it from one call to the next. That makes one
// Expander drive one flow — start each flow from its own. The plans of one
// step may share their Stages and Holds — identical messages expand into
// one plan (cascade's fan-outs) — because the flow never writes a plan:
// each message's token reads its stages and spans and keeps its progress
// in itself.
type Expander interface {
	// Expand returns the parallel messages of the given step (0-based). An
	// empty result completes the step immediately.
	Expand(step int) []MessagePlan
	// Err is consulted after an Expand that returned no plans: a non-nil
	// error means the step could not be expanded (a message with no
	// surviving route) rather than being empty. The flow is abandoned in
	// place and the error becomes the simulation's fatal error
	// (Simulation.Fail), wrapped in an *OpError.
	Err() error
	// Retire runs once when the flow has finished, before OnComplete: the
	// point where Expand's storage may go back to its launcher.
	Retire()
}

// ExpandFunc adapts a function to an Expander whose steps never fail and
// which has nothing to retire.
type ExpandFunc func(step int) []MessagePlan

// Expand calls f.
func (f ExpandFunc) Expand(step int) []MessagePlan { return f(step) }

// Err implements Expander: a function's empty step is an empty step.
func (ExpandFunc) Err() error { return nil }

// Retire implements Expander: a function keeps no storage to hand back.
func (ExpandFunc) Retire() {}

// OnePlan is an Expander of one single-message step: the plan is stored, so
// an expansion returns a view of it and allocates nothing.
type OnePlan [1]MessagePlan

// Expand implements Expander.
func (p *OnePlan) Expand(int) []MessagePlan { return p[:] }

// Err implements Expander.
func (*OnePlan) Err() error { return nil }

// Retire implements Expander.
func (*OnePlan) Retire() {}

// OpRun describes one operation instance to execute: a cascade of NumSteps
// sequential steps, each expanding into one or more messages that run in
// parallel (fork-join across messages of a step). Expansion is lazy — the
// router picks server instances when the step starts, reproducing the
// paper's run-time load balancing.
type OpRun struct {
	// Name of the operation type, e.g. "CAD OPEN".
	Name string
	// DC is the client's data center, used for response-time attribution.
	DC string
	// Gauge, when non-zero, increments the simulation gauge it interns (see
	// Simulation.GaugeHandle) for the lifetime of the operation
	// (concurrent-client accounting).
	Gauge Gauge
	// NumSteps is the number of sequential steps in the cascade.
	NumSteps int
	// Expander expands the steps one by one as the flow reaches them; one
	// OpRun value drives one flow.
	Expander Expander
	// OnComplete, when non-nil, runs in the sequential phase after the
	// operation finishes. now and dur are simulated seconds.
	OnComplete func(now, dur float64)
	// Silent suppresses response-time recording (used by warm-up traffic).
	Silent bool
}

// Expand expands one step through the run's Expander, as the flow does.
func (op *OpRun) Expand(step int) []MessagePlan { return op.Expander.Expand(step) }

// Flow is an in-flight operation instance.
type Flow struct {
	id          uint64
	op          OpRun
	step        int
	outstanding int
	start       float64
	nextFree    *Flow // the window's free list, while finished
}

// token is one in-flight message of a flow traversing its stages. The
// embedded task is reused across stages to avoid per-stage allocation, and
// finished tokens return to the window's free list — message launch is the
// hottest allocation site of busy hours.
type token struct {
	flow     *Flow
	stages   []Stage
	holds    []Hold
	idx      int
	task     queueing.Task
	nextFree *token // the window's free list, while finished
}

// startOp validates and launches an operation instance in a sequential
// phase (Simulation.StartOp). The Flow comes from the window's free list
// and returns to it when the operation completes, so the pointer it hands
// back is only good while the operation is in flight.
func (s *Simulation) startOp(op OpRun) *Flow {
	if op.NumSteps <= 0 || op.Expander == nil {
		panic(fmt.Sprintf("core: operation %q needs NumSteps > 0 and an Expander", op.Name))
	}
	w := &s.root
	f := w.newFlow()
	f.op, f.step = op, -1
	w.nextFlowID++
	f.id = w.nextFlowID
	f.start = s.clock.SecondsAt(w.tick)
	w.flows++
	s.AddGaugeBy(op.Gauge, 1)
	s.advanceFlow(f)
	return f
}

// advanceFlow moves the flow to its next step, launching the step's message
// tokens, or completes the flow when no steps remain. Steps that expand to
// zero messages complete immediately, so the loop continues until a step
// launches work or the flow ends.
func (s *Simulation) advanceFlow(f *Flow) {
	w := &s.root
	for {
		f.step++
		if f.step >= f.op.NumSteps {
			s.completeFlow(f)
			return
		}
		plans := f.op.Expander.Expand(f.step)
		if len(plans) == 0 {
			if err := f.op.Expander.Err(); err != nil {
				s.Fail(&OpError{Op: f.op.Name, DC: f.op.DC, At: s.clock.SecondsAt(w.tick), Err: err})
				return
			}
			continue
		}
		f.outstanding = len(plans)
		for _, plan := range plans {
			tok := w.newToken()
			tok.flow = f
			tok.stages, tok.holds = plan.Stages, plan.Holds
			tok.task.Payload = tok
			s.startStage(tok)
		}
		return
	}
}

// startStage begins the token's current stage — opening the hold spans that
// start there — and hands it to its queue: the one place work arrives on an
// agent. It syncs the agent to the current tick, so the work lands on state
// the reference loop would hold, enqueues, and keys the agent from the
// bound Enqueue reports (QueueAgent, arrive). Instantaneous stages are
// finished in place. When the token runs out of stages the parent flow's
// outstanding count drops and, at zero, the flow advances.
func (s *Simulation) startStage(tok *token) {
	for tok.idx < len(tok.stages) {
		for i := range tok.holds {
			if h := &tok.holds[i]; int(h.From) == tok.idx {
				h.Occ.Acquire(h.Amount)
			}
		}
		st := &tok.stages[tok.idx]
		if q := st.Queue; q != nil {
			tok.task.Demand = st.Demand
			b := q.Base()
			s.syncAgent(b)
			s.arrive(b, q.Enqueue(&tok.task))
			return
		}
		tok.finishStage()
	}
	s.tokenDone(tok)
}

// finishStage closes the hold spans that end at the token's current stage
// and moves the token to its next stage.
func (tok *token) finishStage() {
	for i := range tok.holds {
		if h := &tok.holds[i]; int(h.To) == tok.idx {
			h.Occ.Release(h.Amount)
		}
	}
	tok.idx++
}

// onTaskDone resumes a token whose queued stage completed.
func (s *Simulation) onTaskDone(t *queueing.Task) {
	tok, ok := t.Payload.(*token)
	if !ok {
		panic("core: completed task without token payload")
	}
	tok.finishStage()
	s.startStage(tok)
}

// drainDone hands an agent's buffered completions to the flow router in
// completion order, emptying the buffer. Both loops drain through it, agent
// by agent in ascending ID order. Each task leaves the buffer before
// onTaskDone sees it, so startStage may enqueue the token's own task on the
// next stage's queue at once; a completion's downstream enqueues buffer
// none, so the walk ends with the completions it started with.
func (s *Simulation) drainDone(b *AgentBase) {
	for t := b.done.Pop(); t != nil; t = b.done.Pop() {
		s.onTaskDone(t)
	}
}

// tokenDone accounts a finished message within its flow and recycles the
// token.
func (s *Simulation) tokenDone(tok *token) {
	f := tok.flow
	s.root.freeToken(tok)
	f.outstanding--
	if f.outstanding < 0 {
		panic(fmt.Sprintf("core: flow %d over-completed", f.id))
	}
	if f.outstanding == 0 {
		s.advanceFlow(f)
	}
}

// completeFlow records the response time and runs completion callbacks.
func (s *Simulation) completeFlow(f *Flow) {
	w := &s.root
	now := s.clock.SecondsAt(w.tick)
	dur := now - f.start
	w.flows--
	s.AddGaugeBy(f.op.Gauge, -1)
	if !f.op.Silent {
		w.resp.Record(f.op.Name, f.op.DC, now, dur)
	}
	w.completed++
	// The flow is dead from here on — nothing references it once its last
	// token has been recycled — so it goes back to the window before the
	// callbacks run: an OnComplete that chains the next operation reuses it.
	x, onComplete := f.op.Expander, f.op.OnComplete
	w.freeFlow(f)
	x.Retire()
	if onComplete != nil {
		onComplete(now, dur)
	}
}
