package dispatch

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/queueing"
)

// onReference selects the reference loop, the only loop that sweeps through
// an engine: the simulations here exist to exercise the engines.
var onReference = core.LoopFlags{NoFastForward: true}

// fakeAgent is a minimal queue-bearing agent for engine tests. Its Enqueue
// keeps the core.QueueAgent contract by reporting core.Rekey. A held agent
// never reports Idle, so it stays in the active set without queued work.
type fakeAgent struct {
	core.AgentBase
	q     *queueing.FCFS
	steps atomic.Int64
	held  bool
}

func newFakeAgent(s *core.Simulation, name string) *fakeAgent {
	a := &fakeAgent{q: queueing.NewFCFS(1, 100)}
	a.InitAgent(s.NextAgentID(), name)
	s.AddAgent(a)
	return a
}

func (a *fakeAgent) Enqueue(t *queueing.Task) float64 {
	a.q.Enqueue(t)
	return core.Rekey
}
func (a *fakeAgent) Step(dt float64) {
	a.steps.Add(1)
	a.q.Step(dt, a.BufferDone)
}
func (a *fakeAgent) Idle() bool { return !a.held && a.q.Idle() }

func TestNewEnginePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewScatterGather(0) },
		func() { NewHDispatch(0, 64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor with 0 threads did not panic")
				}
			}()
			f()
		}()
	}
}

func TestEnginesSweepAllActiveAgents(t *testing.T) {
	engines := map[string]core.Engine{
		"scatter-gather": NewScatterGather(4),
		"h-dispatch":     NewHDispatch(4, 8),
	}
	for name, eng := range engines {
		t.Run(name, func(t *testing.T) {
			defer eng.Shutdown()
			s := core.NewSimulation(core.Config{Step: 0.01, Seed: 1, Engine: eng, LoopFlags: onReference})
			agents := make([]*fakeAgent, 100)
			for i := range agents {
				agents[i] = newFakeAgent(s, "a")
				agents[i].held = true // keep in the active set without queued work
				agents[i].MarkDirty()
			}
			s.RunFor(0.1) // 10 ticks
			for i, a := range agents {
				if got := a.steps.Load(); got != 10 {
					t.Fatalf("agent %d stepped %d times, want 10", i, got)
				}
			}
		})
	}
}

// sinkAgent serves tasks and drops their completions, so tests can enqueue
// raw tasks without routing them through a flow.
type sinkAgent struct {
	core.AgentBase
	q     *queueing.FCFS
	steps atomic.Int64
}

func newSinkAgent(s *core.Simulation, name string) *sinkAgent {
	a := &sinkAgent{q: queueing.NewFCFS(1, 100)}
	a.InitAgent(s.NextAgentID(), name)
	s.AddAgent(a)
	return a
}

func (a *sinkAgent) Enqueue(t *queueing.Task) float64 {
	a.q.Enqueue(t)
	return core.Rekey
}

// give hands t to the agent outside any flow, doing what the flow router
// does for a stage: sync, enqueue, and key the agent from the report —
// here a rekey.
func (a *sinkAgent) give(t *queueing.Task) {
	a.Sync()
	a.Enqueue(t)
	a.MarkDirty()
}

func (a *sinkAgent) Step(dt float64) {
	a.steps.Add(1)
	a.q.Step(dt, func(*queueing.Task) {})
}
func (a *sinkAgent) Idle() bool { return a.q.Idle() }

// TestMidRunAddAgentSweptSameTick guards the rebind ordering: an agent
// registered by a source and activated in the same tick must be swept that
// tick — an engine may size per-agent resources from the bound
// population, so binding must happen after the polls.
func TestMidRunAddAgentSweptSameTick(t *testing.T) {
	engines := map[string]func() core.Engine{
		"sequential":     func() core.Engine { return &core.SequentialEngine{} },
		"scatter-gather": func() core.Engine { return NewScatterGather(2) },
		"h-dispatch":     func() core.Engine { return NewHDispatch(2, 4) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			s := core.NewSimulation(core.Config{Step: 0.01, Seed: 1, Engine: mk(), LoopFlags: onReference})
			defer s.Shutdown()
			newSinkAgent(s, "seed")
			var late *sinkAgent
			s.AddSource(core.SourceFunc(func(sim *core.Simulation, now float64) {
				if sim.Clock().Now() == 2 && late == nil {
					late = newSinkAgent(sim, "late")
					late.give(&queueing.Task{ID: 1, Demand: 1})
				}
			}))
			s.RunFor(0.05)
			if late == nil {
				t.Fatal("source never ran")
			}
			if got := late.steps.Load(); got == 0 {
				t.Error("agent added and enqueued mid-run was never swept")
			}
		})
	}
}

// TestEnginesSkipIdleAgents asserts the active-set contract: agents without
// queued work are not stepped, and agents rejoin the sweep when re-enqueued.
func TestEnginesSkipIdleAgents(t *testing.T) {
	engines := map[string]func() core.Engine{
		"sequential":     func() core.Engine { return &core.SequentialEngine{} },
		"scatter-gather": func() core.Engine { return NewScatterGather(4) },
		"h-dispatch":     func() core.Engine { return NewHDispatch(4, 8) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			s := core.NewSimulation(core.Config{Step: 0.01, Seed: 1, Engine: mk(), LoopFlags: onReference})
			defer s.Shutdown()
			busy := newSinkAgent(s, "busy")
			idle := newSinkAgent(s, "idle")
			// 100 units at rate 100 = 1 s of service: busy for 100 ticks.
			busy.give(&queueing.Task{ID: 1, Demand: 100})
			s.RunFor(2)
			if got := idle.steps.Load(); got != 0 {
				t.Errorf("idle agent stepped %d times, want 0", got)
			}
			// The busy agent must leave the active set once drained.
			stepsWhenDone := busy.steps.Load()
			if stepsWhenDone >= 200 {
				t.Errorf("busy agent stepped %d times over 200 ticks, should have deactivated after ~100", stepsWhenDone)
			}
			s.RunFor(1)
			if got := busy.steps.Load(); got != stepsWhenDone {
				t.Errorf("deactivated agent stepped again: %d -> %d", stepsWhenDone, got)
			}
			// Re-enqueueing reactivates.
			busy.give(&queueing.Task{ID: 2, Demand: 1})
			s.RunFor(0.1)
			if got := busy.steps.Load(); got <= stepsWhenDone {
				t.Error("re-enqueued agent was not swept again")
			}
		})
	}
}

func TestHDispatchShutdownIdempotent(t *testing.T) {
	e := NewHDispatch(2, 4)
	e.Shutdown()
	e.Shutdown()
}

func TestHDispatchEmptyBindSweep(t *testing.T) {
	e := NewHDispatch(2, 4)
	defer e.Shutdown()
	e.Bind(nil)
	e.Sweep(nil, func(core.Agent) { t.Fatal("sweep over empty active set invoked fn") })
}

func TestScatterGatherEmptySweep(t *testing.T) {
	e := NewScatterGather(2)
	defer e.Shutdown()
	e.Bind(nil)
	e.Sweep(nil, func(core.Agent) { t.Fatal("sweep over empty active set invoked fn") })
}

// runWorkload executes an identical randomized workload on a simulation
// driven by the given engine and returns a results fingerprint.
func runWorkload(t *testing.T, eng core.Engine) (uint64, []float64) {
	t.Helper()
	s := core.NewSimulation(core.Config{Step: 0.01, Seed: 77, Engine: eng, LoopFlags: onReference})
	defer s.Shutdown()
	const nAgents = 150
	agents := make([]*fakeAgent, nAgents)
	for i := range agents {
		agents[i] = newFakeAgent(s, "srv")
	}
	count := 0
	s.AddSource(core.SourceFunc(func(sim *core.Simulation, now float64) {
		for count < 500 && sim.Clock().Now()%3 == 0 {
			count++
			first := agents[sim.RNG().IntN(nAgents)]
			second := agents[sim.RNG().IntN(nAgents)]
			demand := 5 + sim.RNG().Float64()*50
			sim.StartOp(core.OpRun{
				Name: "W", DC: "NA", NumSteps: 1,
				Expander: core.ExpandFunc(func(int) []core.MessagePlan {
					return []core.MessagePlan{{Stages: []core.Stage{
						{Queue: first, Demand: demand},
						{Queue: second, Demand: demand / 2},
					}}}
				}),
			})
			break
		}
	}))
	if err := s.RunUntilIdle(300); err != nil {
		t.Fatal(err)
	}
	series := s.Responses.Series("W", "NA")
	return s.CompletedOps(), append([]float64(nil), series.V...)
}

// TestEngineEquivalence asserts that both parallel engines produce results
// bit-identical to the sequential reference — the determinism property that
// makes the parallelization purely a performance concern.
func TestEngineEquivalence(t *testing.T) {
	_, ref := runWorkload(t, &core.SequentialEngine{})
	for name, eng := range map[string]core.Engine{
		"scatter-gather": NewScatterGather(8),
		"h-dispatch":     NewHDispatch(8, 16),
	} {
		t.Run(name, func(t *testing.T) {
			_, got := runWorkload(t, eng)
			if len(got) != len(ref) {
				t.Fatalf("completions differ: %d vs %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("response %d differs: %v vs %v", i, got[i], ref[i])
				}
			}
		})
	}
}

// sweepPanicReachesCaller sweeps eight agents through e, the sixth of which
// panics, and checks the failure contract the pool gives every engine: the
// caller recovers a *ShardPanic wrapping the agent's value, raised only
// after every other agent was stepped, and the engine stays usable.
func sweepPanicReachesCaller(t *testing.T, e core.Engine) {
	t.Helper()
	defer e.Shutdown()
	agents := make([]*fakeAgent, 8)
	active := make([]core.Agent, len(agents))
	for i := range agents {
		agents[i] = &fakeAgent{}
		active[i] = agents[i]
	}
	var finished atomic.Int64
	var got any
	func() {
		defer func() { got = recover() }()
		e.Sweep(active, func(a core.Agent) {
			if a == active[5] {
				panic("boom")
			}
			finished.Add(1)
		})
	}()
	sp, ok := got.(*ShardPanic)
	if !ok || sp.Value != "boom" {
		t.Fatalf("Sweep panicked with %#v, want a *ShardPanic wrapping the agent's value", got)
	}
	if n := finished.Load(); n != 7 {
		t.Errorf("%d healthy agents stepped before the re-panic, want 7", n)
	}
	e.Sweep(active, func(a core.Agent) { a.(*fakeAgent).steps.Add(1) })
	for i, a := range agents {
		if a.steps.Load() != 1 {
			t.Fatalf("sweep after a recovered panic stepped agent %d %d times, want 1", i, a.steps.Load())
		}
	}
}

func TestScatterGatherWorkerPanicReachesCaller(t *testing.T) {
	sweepPanicReachesCaller(t, NewScatterGather(4))
}

func TestHDispatchWorkerPanicReachesCaller(t *testing.T) {
	sweepPanicReachesCaller(t, NewHDispatch(2, 3))
}
