package core

import (
	"fmt"

	"repro/internal/queueing"
)

// Occupancy is a resource a message holds across a run of consecutive
// stages — a server's memory during processing (Fig. 3-5). The flow
// machinery calls it in the sequential phase with the amount the stage
// carries.
type Occupancy interface {
	Acquire(amount float64)
	Release(amount float64)
}

// Stage is one hop of a message through the infrastructure: a piece of work
// performed by a single hardware agent (NIC transmit, link transit, CPU
// service, storage access) or a pure delay (client-side think/render time).
// Stages are produced by the topology router when it expands a cascade
// message into the agents along the route (§3.3.2).
type Stage struct {
	// Queue is the agent that serves this stage. A nil Queue makes the
	// stage instantaneous: its occupancy calls run and the token advances
	// within the same interaction phase.
	Queue QueueAgent
	// Demand is the work amount in the target agent's units (cycles for
	// CPUs, bits for network elements, bytes for storage).
	Demand float64
	// Delay is a fixed latency in seconds, used by delay-line stages.
	Delay float64
	// Hold, when non-nil, is the occupancy this stage opens and/or closes:
	// HoldAmount is acquired when the stage starts if Acquire is set, and
	// released when it completes if Release is set. The router marks
	// Acquire on the first and Release on the last processing stage at a
	// server; a lone processing stage carries both.
	Hold       Occupancy
	HoldAmount float64
	Acquire    bool
	Release    bool
}

// MessagePlan is a fully-expanded message of a cascade: the ordered stages
// it traverses from origin to destination holon.
type MessagePlan struct {
	Stages []Stage
}

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
	// GaugeKey, when non-empty, increments the named simulation gauge for
	// the lifetime of the operation (concurrent-client accounting).
	// Launchers on the hot path should pre-intern the key and set Gauge
	// instead; GaugeKey is interned on every StartOp.
	GaugeKey string
	// Gauge is the interned form of GaugeKey (see Simulation.GaugeHandle);
	// zero means none. When both are set, Gauge wins.
	Gauge Gauge
	// NumSteps is the number of sequential steps in the cascade.
	NumSteps int
	// Expand returns the parallel messages of the given step (0-based).
	// An empty result completes the step immediately. The flow calls it
	// with strictly increasing steps, and step k+1 only after every message
	// of step k has finished, so the plans of step k are dead once step k+1
	// is expanded: an implementation may reuse the returned slice and the
	// stage storage behind it from one call to the next. That makes one
	// OpRun value drive one flow — start each flow from its own OpRun.
	Expand func(step int) []MessagePlan
	// Err, when non-nil, is consulted after an Expand that returned no
	// plans: a non-nil error means the step could not be expanded (a
	// message with no surviving route) rather than being empty. The flow is
	// abandoned in place and the error becomes the simulation's fatal error
	// (Simulation.Fail), wrapped in an *OpError.
	Err func() error
	// OnComplete, when non-nil, runs in the sequential phase after the
	// operation finishes. now and dur are simulated seconds.
	OnComplete func(now, dur float64)
	// Retire, when non-nil, runs once when the flow has finished, before
	// OnComplete: the point where Expand's storage may go back to its
	// launcher.
	Retire func()
	// Silent suppresses response-time recording (used by warm-up traffic).
	Silent bool
}

// Flow is an in-flight operation instance.
type Flow struct {
	id          uint64
	op          OpRun
	step        int
	outstanding int
	start       float64
}

// token is one in-flight message of a flow traversing its stages. The
// embedded task is reused across stages to avoid per-stage allocation, and
// finished tokens return to the window's free list — message launch is the
// hottest allocation site of busy hours.
type token struct {
	flow   *Flow
	stages []Stage
	idx    int
	task   queueing.Task
}

// startOp validates and launches an operation instance in a sequential
// phase (Simulation.StartOp). The Flow comes from the window's free list
// and returns to it when the operation completes, so the pointer it hands
// back is only good while the operation is in flight.
func (s *Simulation) startOp(op OpRun) *Flow {
	if op.NumSteps <= 0 || op.Expand == nil {
		panic(fmt.Sprintf("core: operation %q needs NumSteps > 0 and an Expand function", op.Name))
	}
	if op.Gauge == 0 && op.GaugeKey != "" {
		op.Gauge = s.GaugeHandle(op.GaugeKey)
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
		plans := f.op.Expand(f.step)
		if len(plans) == 0 {
			if f.op.Err != nil {
				if err := f.op.Err(); err != nil {
					s.Fail(&OpError{Op: f.op.Name, DC: f.op.DC, At: s.clock.SecondsAt(w.tick), Err: err})
					return
				}
			}
			continue
		}
		f.outstanding = len(plans)
		for _, plan := range plans {
			tok := w.newToken()
			tok.flow = f
			tok.stages = plan.Stages
			tok.task.Payload = tok
			s.startStage(tok)
		}
		return
	}
}

// startStage begins the token's current stage, skipping instantaneous
// stages in place. When the token runs out of stages the parent flow's
// outstanding count drops and, at zero, the flow advances.
func (s *Simulation) startStage(tok *token) {
	for tok.idx < len(tok.stages) {
		st := &tok.stages[tok.idx]
		if st.Acquire {
			st.Hold.Acquire(st.HoldAmount)
		}
		if st.Queue != nil {
			tok.task.Demand = st.Demand
			tok.task.Delay = st.Delay
			id := st.Queue.ID()
			// The target may be lazily stepped; replay its deficit before
			// the enqueue mutates its queues, so the new work lands on
			// state identical to the reference loop's. Hardware agents
			// self-sync in Enqueue and then find nothing left to replay;
			// routing through here covers custom agents too.
			s.syncAgent(id)
			st.Queue.Enqueue(&tok.task)
			// Join the active set so the agent is stepped from the next
			// tick on. Hardware agents self-activate in Enqueue through
			// their queues' notify hooks, which leaves two flag reads here;
			// custom agents get the call.
			if b := s.bases[id]; !b.active || !b.dirty {
				b.MarkActive()
			}
			return
		}
		// Instantaneous stage: release and fall through to the next.
		if st.Release {
			st.Hold.Release(st.HoldAmount)
		}
		tok.idx++
	}
	s.tokenDone(tok)
}

// onTaskDone resumes a token whose queued stage completed.
func (s *Simulation) onTaskDone(t *queueing.Task) {
	tok, ok := t.Payload.(*token)
	if !ok {
		panic("core: completed task without token payload")
	}
	st := &tok.stages[tok.idx]
	if st.Release {
		st.Hold.Release(st.HoldAmount)
	}
	tok.idx++
	s.startStage(tok)
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
	retire, onComplete := f.op.Retire, f.op.OnComplete
	w.freeFlow(f)
	if retire != nil {
		retire()
	}
	if onComplete != nil {
		onComplete(now, dur)
	}
}
