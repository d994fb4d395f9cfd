package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/queueing"
)

// testQueueAgent wraps an FCFS queue, standing in for a hardware component.
// Its Enqueue keeps the QueueAgent contract the plain way: it reports Rekey,
// so the router activates it and the loop rekeys it from its horizon.
type testQueueAgent struct {
	AgentBase
	q *queueing.FCFS
}

func newTestQueueAgent(s *Simulation, name string, servers int, rate float64) *testQueueAgent {
	a := &testQueueAgent{q: queueing.NewFCFS(servers, rate)}
	a.InitAgent(s.NextAgentID(), name)
	s.AddAgent(a)
	return a
}

func (a *testQueueAgent) Enqueue(t *queueing.Task) float64 {
	a.q.Enqueue(t)
	return Rekey
}
func (a *testQueueAgent) Step(dt float64) { a.q.Step(dt, a.BufferDone) }
func (a *testQueueAgent) Idle() bool      { return a.q.Idle() }

func singleStageOp(name, dc string, agent QueueAgent, demand float64) OpRun {
	return OpRun{
		Name:     name,
		DC:       dc,
		NumSteps: 1,
		Expander: ExpandFunc(func(int) []MessagePlan {
			return []MessagePlan{{Stages: []Stage{{Queue: agent, Demand: demand}}}}
		}),
	}
}

// testExpander is an Expander assembled from functions, for the tests that
// need a step error or a retire hook; nil err and retire do nothing.
type testExpander struct {
	expand func(step int) []MessagePlan
	err    func() error
	retire func()
}

func (x *testExpander) Expand(step int) []MessagePlan { return x.expand(step) }

func (x *testExpander) Err() error {
	if x.err == nil {
		return nil
	}
	return x.err()
}

func (x *testExpander) Retire() {
	if x.retire != nil {
		x.retire()
	}
}

func TestAgentBaseInitPanics(t *testing.T) {
	var b AgentBase
	defer func() {
		if recover() == nil {
			t.Error("empty name did not panic")
		}
	}()
	b.InitAgent(0, "")
}

func TestAgentBaseDoubleInitPanics(t *testing.T) {
	var b AgentBase
	b.InitAgent(0, "a")
	defer func() {
		if recover() == nil {
			t.Error("double init did not panic")
		}
	}()
	b.InitAgent(1, "b")
}

func TestAddAgentIDMismatchPanics(t *testing.T) {
	s := NewSimulation(Config{})
	var b struct {
		AgentBase
	}
	_ = b
	a := &testQueueAgent{q: queueing.NewFCFS(1, 1)}
	a.InitAgent(5, "wrong") // simulation expects ID 0
	defer func() {
		if recover() == nil {
			t.Error("ID mismatch did not panic")
		}
	}()
	s.AddAgent(a)
}

func TestSingleStageOpCompletes(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cpu := newTestQueueAgent(s, "cpu", 1, 100) // 100 units/s
	launched := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !launched {
			launched = true
			sim.StartOp(singleStageOp("OP", "NA", cpu, 50)) // 0.5s of service
		}
	}))
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	mean, ok := s.Responses.MeanAll("OP", "NA")
	if !ok {
		t.Fatal("no response recorded")
	}
	// 0.5 s service, plus up to a couple of ticks of phase quantization.
	if mean < 0.5-1e-9 || mean > 0.53 {
		t.Errorf("response = %v, want ~0.5", mean)
	}
	if s.CompletedOps() != 1 {
		t.Errorf("completedOps = %d", s.CompletedOps())
	}
}

func TestForkJoinStepWaitsForAllMessages(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	fast := newTestQueueAgent(s, "fast", 1, 100)
	slow := newTestQueueAgent(s, "slow", 1, 10)
	var secondStepStarted float64 = -1
	op := OpRun{
		Name: "FJ", DC: "NA", NumSteps: 2,
		Expander: ExpandFunc(func(step int) []MessagePlan {
			if step == 0 {
				return []MessagePlan{
					{Stages: []Stage{{Queue: fast, Demand: 10}}},  // 0.1s
					{Stages: []Stage{{Queue: slow, Demand: 100}}}, // 10s
				}
			}
			secondStepStarted = s.Clock().NowSeconds()
			return []MessagePlan{{Stages: []Stage{{Queue: fast, Demand: 1}}}}
		}),
	}
	started := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !started {
			started = true
			sim.StartOp(op)
		}
	}))
	if err := s.RunUntilIdle(30); err != nil {
		t.Fatal(err)
	}
	if secondStepStarted < 10 {
		t.Errorf("second step started at %v, before slow branch finished (10s)", secondStepStarted)
	}
}

// recordingHold logs occupancy calls with their amounts.
type recordingHold struct{ events []string }

func (h *recordingHold) Acquire(b float64) { h.events = append(h.events, fmt.Sprintf("acquire %g", b)) }
func (h *recordingHold) Release(b float64) { h.events = append(h.events, fmt.Sprintf("release %g", b)) }

// TestStageIs24Bytes pins the compact hop: a stage is its queue and its
// demand and nothing else, so a message's per-hop read stays 24 bytes.
// State that would grow it (occupancy, latency) belongs to the plan.
func TestStageIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Stage{}); n != 24 {
		t.Errorf("core.Stage is %d bytes, want 24", n)
	}
}

func TestStageOccupancyCallsRunInOrder(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cpu := newTestQueueAgent(s, "cpu", 1, 100)
	hold := &recordingHold{}
	op := OpRun{
		Name: "HOLD", DC: "NA", NumSteps: 1,
		Expander: ExpandFunc(func(int) []MessagePlan {
			// An instantaneous stage opens the outer span and falls
			// through; the queued stage opens and closes its own span
			// around the service; a trailing instantaneous stage closes
			// the outer one.
			return []MessagePlan{{
				Stages: []Stage{{}, {Queue: cpu, Demand: 10}, {}},
				Holds:  []Hold{{Occ: hold, Amount: 1, From: 0, To: 2}, {Occ: hold, Amount: 2, From: 1, To: 1}},
			}}
		}),
	}
	started := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !started {
			started = true
			sim.StartOp(op)
		}
	}))
	s.RunFor(0.05)
	if got := strings.Join(hold.events, ","); got != "acquire 1,acquire 2" {
		t.Fatalf("mid-service events = %q, want the two acquisitions only", got)
	}
	if err := s.RunUntilIdle(5); err != nil {
		t.Fatal(err)
	}
	want := "acquire 1,acquire 2,release 2,release 1"
	if got := strings.Join(hold.events, ","); got != want {
		t.Fatalf("events = %q, want %q", got, want)
	}
}

// Retire runs exactly once, when the flow has finished and before
// OnComplete.
func TestRetireRunsOnceBeforeOnComplete(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cpu := newTestQueueAgent(s, "cpu", 1, 100)
	var events []string
	op := singleStageOp("RETIRE", "NA", cpu, 10)
	op.NumSteps = 2 // the same single stage twice: Retire must wait for both
	op.Expander = &testExpander{expand: op.Expander.Expand, retire: func() { events = append(events, "retire") }}
	op.OnComplete = func(now, dur float64) { events = append(events, "complete") }
	local := singleStageOp("LOCAL", "NA", cpu, 10)
	local.Expander = &testExpander{expand: local.Expander.Expand, retire: func() { events = append(events, "local-retire") }}
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if now == 0 {
			sim.StartOp(op)
			sim.StartOp(local)
		}
	}))
	if err := s.RunUntilIdle(5); err != nil {
		t.Fatal(err)
	}
	want := "local-retire,retire,complete"
	if got := strings.Join(events, ","); got != want {
		t.Fatalf("events = %q, want %q", got, want)
	}
}

func TestGaugeTracksConcurrentOps(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cpu := newTestQueueAgent(s, "cpu", 4, 100)
	n := 0
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if n < 3 {
			n++
			op := singleStageOp("G", "NA", cpu, 100) // 1s each
			op.Gauge = sim.GaugeHandle("clients")
			sim.StartOp(op)
		}
	}))
	s.RunFor(0.5)
	if g := s.GaugeValue("clients"); g != 3 {
		t.Errorf("gauge mid-flight = %v, want 3", g)
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if g := s.GaugeValue("clients"); g != 0 {
		t.Errorf("gauge after completion = %v, want 0", g)
	}
}

func TestDelayLineHoldsExactDelay(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	dl := NewDelayLine(s, "think")
	op := OpRun{
		Name: "THINK", DC: "NA", NumSteps: 1,
		Expander: ExpandFunc(func(int) []MessagePlan {
			return []MessagePlan{{Stages: []Stage{{Queue: dl, Demand: 1.5}}}}
		}),
	}
	started := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !started {
			started = true
			sim.StartOp(op)
		}
	}))
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	mean, _ := s.Responses.MeanAll("THINK", "NA")
	if math.Abs(mean-1.5) > 0.03 {
		t.Errorf("delay response = %v, want ~1.5", mean)
	}
}

func TestDelayLineOrdering(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	dl := NewDelayLine(s, "dl")
	var order []string
	mk := func(name string, d float64) OpRun {
		return OpRun{
			Name: name, DC: "NA", NumSteps: 1,
			Expander: ExpandFunc(func(int) []MessagePlan {
				return []MessagePlan{{Stages: []Stage{{Queue: dl, Demand: d}}}}
			}),
			OnComplete: func(now, dur float64) { order = append(order, name) },
		}
	}
	started := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !started {
			started = true
			sim.StartOp(mk("slow", 2))
			sim.StartOp(mk("quick", 1))
		}
	}))
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "quick" || order[1] != "slow" {
		t.Errorf("completion order = %v", order)
	}
}

func TestTimestampConsistencyAcrossStages(t *testing.T) {
	// A task forwarded during tick t must not be served before tick t+1
	// (§4.3.3), so a 2-stage zero-ish-demand flow takes at least 2 ticks.
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	a := newTestQueueAgent(s, "a", 1, 1e9)
	b := newTestQueueAgent(s, "b", 1, 1e9)
	op := OpRun{
		Name: "2STAGE", DC: "NA", NumSteps: 1,
		Expander: ExpandFunc(func(int) []MessagePlan {
			return []MessagePlan{{Stages: []Stage{
				{Queue: a, Demand: 1},
				{Queue: b, Demand: 1},
			}}}
		}),
	}
	started := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !started {
			started = true
			sim.StartOp(op)
		}
	}))
	if err := s.RunUntilIdle(1); err != nil {
		t.Fatal(err)
	}
	mean, _ := s.Responses.MeanAll("2STAGE", "NA")
	if mean < 2*s.Clock().Step()-1e-9 {
		t.Errorf("2-stage flow finished in %v, violating per-tick forwarding", mean)
	}
}

func TestActiveSetJoinAndLeave(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	a := newTestQueueAgent(s, "a", 1, 100)
	idle := newTestQueueAgent(s, "idle", 1, 100)
	_ = idle
	if n := s.ActiveAgents(); n != 0 {
		t.Fatalf("fresh simulation has %d active agents, want 0", n)
	}
	launched := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !launched {
			launched = true
			sim.StartOp(singleStageOp("A", "NA", a, 50)) // 0.5 s of service
		}
	}))
	s.RunFor(0.1)
	if n := s.ActiveAgents(); n != 1 {
		t.Errorf("mid-flight active set size = %d, want 1 (only the serving agent)", n)
	}
	if err := s.RunUntilIdle(5); err != nil {
		t.Fatal(err)
	}
	if n := s.ActiveAgents(); n != 0 {
		t.Errorf("post-completion active set size = %d, want 0", n)
	}
}

func TestActiveSetDuplicateEnqueueSingleEntry(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	a := newTestQueueAgent(s, "a", 1, 100)
	launched := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !launched {
			launched = true
			for i := 0; i < 5; i++ {
				sim.StartOp(singleStageOp("D", "NA", a, 10))
			}
		}
	}))
	s.RunFor(0.05)
	if n := s.ActiveAgents(); n != 1 {
		t.Errorf("5 enqueues on one agent produced active set size %d, want 1", n)
	}
	if err := s.RunUntilIdle(5); err != nil {
		t.Fatal(err)
	}
	if s.CompletedOps() != 5 {
		t.Errorf("completedOps = %d, want 5", s.CompletedOps())
	}
}

// stepCounter counts sweeps. It holds no work; unless busy it reports Idle
// and leaves the active set at once, while a busy one never goes idle and,
// with the default Horizon of 0, acts on every tick.
type stepCounter struct {
	AgentBase
	steps int
	busy  bool
}

func (a *stepCounter) Step(dt float64) { a.steps++ }
func (a *stepCounter) Idle() bool      { return !a.busy }

// TestPinnedAgentSweptEveryTick: an agent that never goes idle is stepped on
// every tick with no pin — it activates when it registers, and its default
// Horizon of 0 keys it for the next tick each time it acts — while an idle
// one is never stepped.
func TestPinnedAgentSweptEveryTick(t *testing.T) {
	for _, ref := range []bool{false, true} {
		s := NewSimulation(Config{Step: 0.01, Seed: 1, LoopFlags: refFlags(ref)})
		busy := &stepCounter{busy: true}
		busy.InitAgent(s.NextAgentID(), "busy")
		s.AddAgent(busy)
		loose := &stepCounter{}
		loose.InitAgent(s.NextAgentID(), "loose")
		s.AddAgent(loose)
		s.RunFor(0.1) // 10 ticks
		if busy.steps != 10 {
			t.Errorf("reference loop %v: never-idle agent stepped %d times, want 10", ref, busy.steps)
		}
		if loose.steps != 0 {
			t.Errorf("reference loop %v: idle agent stepped %d times, want 0", ref, loose.steps)
		}
	}
}

func TestMarkActiveBeforeRegistrationIsSafe(t *testing.T) {
	a := stepCounter{busy: true}
	a.MarkDirty() // not registered: must be a no-op, not a panic
	a.Sync()
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	a.InitAgent(s.NextAgentID(), "early")
	s.AddAgent(&a)
	s.RunFor(0.02)
	if a.steps != 2 {
		t.Errorf("pre-registration MarkDirty: stepped %d times, want 2", a.steps)
	}
}

func TestGaugeHandleInterning(t *testing.T) {
	s := NewSimulation(Config{})
	g1 := s.GaugeHandle("x")
	g2 := s.GaugeHandle("x")
	if g1 != g2 {
		t.Errorf("interning returned distinct handles %d, %d", g1, g2)
	}
	if g := s.GaugeHandle(""); g != 0 {
		t.Errorf("empty key interned to %d, want 0", g)
	}
	s.AddGaugeBy(g1, 2.5)
	s.AddGauge("x", 1.5)
	if v := s.GaugeValue("x"); v != 4 {
		t.Errorf("gauge = %v, want 4 (handle and string APIs share storage)", v)
	}
	if v := s.GaugeValueBy(0); v != 0 {
		t.Errorf("zero handle read %v, want 0", v)
	}
	s.AddGaugeBy(0, 99) // no-op, must not panic
}

func TestRunUntilIdleTimesOut(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	slow := newTestQueueAgent(s, "slow", 1, 1)
	started := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !started {
			started = true
			sim.StartOp(singleStageOp("SLOW", "NA", slow, 1e6))
		}
	}))
	if err := s.RunUntilIdle(0.5); err == nil {
		t.Error("RunUntilIdle should time out on a stuck flow")
	}
	if err := s.RunUntilIdle(0); err == nil {
		t.Error("RunUntilIdle with no budget left should still report the stuck flow")
	}

	// An idle simulation is idle whatever the budget: one that rounds to
	// zero ticks must not be reported as a timeout ("0 flows still active
	// after 0 simulated seconds"), on either loop.
	for _, ref := range []bool{false, true} {
		idle := NewSimulation(Config{Step: 0.01, Seed: 1, LoopFlags: refFlags(ref)})
		newTestQueueAgent(idle, "idle", 1, 1)
		for _, budget := range []float64{0, -1} {
			if err := idle.RunUntilIdle(budget); err != nil {
				t.Errorf("reference=%v: idle simulation, budget %v: %v", ref, budget, err)
			}
		}
		if now := idle.Clock().Now(); now != 0 {
			t.Errorf("reference=%v: a zero budget advanced the clock to tick %d", ref, now)
		}
		// A positive budget still takes one step — a tick on the reference
		// loop, a window on the production loop — before reporting idle.
		if err := idle.RunUntilIdle(1); err != nil || idle.Clock().Now() == 0 {
			t.Errorf("reference=%v: idle simulation, budget 1 s: err %v at tick %d, want nil after one step", ref, err, idle.Clock().Now())
		}
	}
}

func TestStartOpValidation(t *testing.T) {
	s := NewSimulation(Config{})
	defer func() {
		if recover() == nil {
			t.Error("invalid OpRun did not panic")
		}
	}()
	s.StartOp(OpRun{Name: "bad"})
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() (uint64, float64) {
		s := NewSimulation(Config{Step: 0.01, Seed: 99})
		cpu := newTestQueueAgent(s, "cpu", 2, 100)
		count := 0
		s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
			if count < 50 && sim.Clock().Now()%10 == 0 {
				count++
				d := 10 + sim.RNG().Float64()*90
				sim.StartOp(singleStageOp("R", "NA", cpu, d))
			}
		}))
		if err := s.RunUntilIdle(120); err != nil {
			t.Fatal(err)
		}
		m, _ := s.Responses.MeanAll("R", "NA")
		return s.CompletedOps(), m
	}
	n1, m1 := run()
	n2, m2 := run()
	if n1 != n2 || m1 != m2 {
		t.Errorf("non-deterministic: (%d,%v) vs (%d,%v)", n1, m1, n2, m2)
	}
}

func TestSilentOpsSkipResponseRecording(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cpu := newTestQueueAgent(s, "cpu", 1, 100)
	op := singleStageOp("WARM", "NA", cpu, 10)
	op.Silent = true
	started := false
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if !started {
			started = true
			sim.StartOp(op)
		}
	}))
	if err := s.RunUntilIdle(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Responses.MeanAll("WARM", "NA"); ok {
		t.Error("silent op recorded a response")
	}
	if s.CompletedOps() != 1 {
		t.Error("silent op not counted as completed")
	}
}

// timedSource launches once at a scheduled instant and reports it through
// NextPoll, so the event-horizon loop can skip the quiet polls before it.
type timedSource struct {
	at     float64
	fired  bool
	launch func(s *Simulation)
}

func (ts *timedSource) Poll(s *Simulation, now float64) {
	if !ts.fired && now >= ts.at {
		ts.fired = true
		ts.launch(s)
	}
}

func (ts *timedSource) NextPoll(now float64) float64 {
	if ts.fired {
		return math.Inf(1)
	}
	return ts.at
}

// fastForwardFixture runs a sparse schedule — two delay-line operations
// separated by long quiet stretches — and returns the simulation for
// inspection. The completion instants land mid-stretch, so both the
// source-poll and the agent-horizon jump bounds are exercised.
func fastForwardFixture(noFF bool) *Simulation {
	s := NewSimulation(Config{Step: 0.01, CollectEvery: 500, Seed: 3, LoopFlags: refFlags(noFF)})
	s.Collector.Register(metrics.Probe{Key: "flows", Sample: metrics.SampleFunc(func(float64) float64 {
		return float64(s.ActiveFlows())
	})})
	dl := NewDelayLine(s, "think")
	for _, at := range []float64{0.5, 31.07} {
		s.AddSource(&timedSource{at: at, launch: func(s *Simulation) {
			s.StartOp(OpRun{
				Name: "THINK", DC: "NA", NumSteps: 1,
				Expander: ExpandFunc(func(int) []MessagePlan {
					return []MessagePlan{{Stages: []Stage{{Queue: dl, Demand: 7.301}}}}
				}),
			})
		}})
	}
	s.RunFor(60)
	return s
}

// TestFastForwardDelayLine checks the event-horizon loop end to end at the
// core layer: the fast-forwarded run must jump across the quiet stretches
// yet record completion timestamps bit-identical to the plain loop.
func TestFastForwardDelayLine(t *testing.T) {
	ff := fastForwardFixture(false)
	plain := fastForwardFixture(true)

	if st := plain.Stats(); st.Jumps != 0 || st.SkippedTicks != 0 {
		t.Fatalf("plain loop jumped: %d jumps, %d ticks", st.Jumps, st.SkippedTicks)
	}
	st := ff.Stats()
	jumps, skipped := st.Jumps, st.SkippedTicks
	if jumps == 0 || skipped < 3000 {
		t.Errorf("fast-forward skipped %d ticks in %d jumps; the 60 s schedule holds ~45 s of quiet", skipped, jumps)
	}
	if ff.Clock().Now() != plain.Clock().Now() {
		t.Errorf("final tick: %d vs %d", ff.Clock().Now(), plain.Clock().Now())
	}
	if ff.CompletedOps() != 2 || plain.CompletedOps() != 2 {
		t.Fatalf("completed ops: ff %d plain %d, want 2", ff.CompletedOps(), plain.CompletedOps())
	}
	fs, ps := ff.Responses.Series("THINK", "NA"), plain.Responses.Series("THINK", "NA")
	for i := range ps.V {
		if fs.T[i] != ps.T[i] || fs.V[i] != ps.V[i] {
			t.Errorf("completion %d: (%v, %v) vs (%v, %v)", i, fs.T[i], fs.V[i], ps.T[i], ps.V[i])
		}
	}
}

// TestFastForwardSnapshotBoundaries asserts that jumps never skip a
// collector boundary: the snapshot timeline must be identical to the
// plain loop's even when the platform is quiet for many windows.
func TestFastForwardSnapshotBoundaries(t *testing.T) {
	ff := fastForwardFixture(false)
	plain := fastForwardFixture(true)
	fs, ps := ff.Collector.MustSeries("flows"), plain.Collector.MustSeries("flows")
	if fs.Len() != ps.Len() || fs.Len() != 12 {
		t.Fatalf("snapshots: ff %d plain %d, want 12 (every 5 s over 60 s)", fs.Len(), ps.Len())
	}
	for i := range ps.V {
		if fs.T[i] != ps.T[i] || fs.V[i] != ps.V[i] {
			t.Errorf("snapshot %d: (%v, %v) vs (%v, %v)", i, fs.T[i], fs.V[i], ps.T[i], ps.V[i])
		}
	}
}

// TestDirectTickNeverJumps pins the Tick contract: manual single-stepping
// stays single-stepping, however quiet the simulation is.
func TestDirectTickNeverJumps(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	NewDelayLine(s, "idle")
	for i := 0; i < 1000; i++ {
		s.Tick()
	}
	if st := s.Stats(); st.Jumps != 0 || st.SkippedTicks != 0 {
		t.Errorf("direct Tick jumped: %d jumps, %d ticks", st.Jumps, st.SkippedTicks)
	}
	if s.Clock().Now() != 1000 {
		t.Errorf("clock at %d, want 1000", s.Clock().Now())
	}
}

// An Expand that returns nothing is an empty step unless Expander.Err says
// otherwise; then the flow is abandoned where it stands, the simulation
// records the first such error wrapped in an *OpError, finishes the window
// and stops.
func TestExpandErrorStopsTheRun(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cpu := newTestQueueAgent(s, "cpu", 1, 100)
	cause := errors.New("no way through")
	failing := singleStageOp("DOOMED", "EU", cpu, 10)
	failing.NumSteps = 3
	inner := failing.Expander.Expand
	var failedStep int
	failing.Expander = &testExpander{
		expand: func(step int) []MessagePlan {
			if step == 1 {
				failedStep = step
				return nil
			}
			return inner(step)
		},
		err: func() error {
			if failedStep == 1 {
				return cause
			}
			return nil
		},
	}
	completed := false
	failing.OnComplete = func(now, dur float64) { completed = true }
	emptyStep := singleStageOp("SPARSE", "EU", cpu, 10)
	emptyStep.NumSteps = 2
	emptyStep.Expander = ExpandFunc(func(step int) []MessagePlan {
		if step == 0 {
			return nil // empty, and Err stays nil: skipped
		}
		return inner(step)
	})
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if now == 0 {
			sim.StartOp(emptyStep)
			sim.StartOp(failing)
		}
	}))
	err := s.RunUntilIdle(5)
	var opErr *OpError
	if !errors.As(err, &opErr) || !errors.Is(err, cause) {
		t.Fatalf("RunUntilIdle = %v, want an *OpError around the cause", err)
	}
	if opErr.Op != "DOOMED" || opErr.DC != "EU" || opErr.At <= 0 {
		t.Errorf("OpError %+v, want DOOMED from EU at its second step's instant", opErr)
	}
	if completed {
		t.Error("the abandoned flow completed")
	}
	s.Fail(errors.New("later"))
	if s.Err() != err {
		t.Error("a later failure replaced the first")
	}
	stopped := s.Clock().Now()
	s.RunFor(1)
	if s.Clock().Now() != stopped {
		t.Error("a failed simulation kept advancing")
	}
}

// Finished flows go back to their window: a chain of operations, each
// started by its predecessor's completion, runs on one Flow.
func TestFlowsAreRecycled(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cpu := newTestQueueAgent(s, "cpu", 1, 100)
	left := 50
	var chain OpRun
	chain = singleStageOp("LINK", "NA", cpu, 1)
	chain.OnComplete = func(now, dur float64) {
		if left--; left > 0 {
			s.StartOp(chain)
		}
	}
	s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
		if now == 0 {
			sim.StartOp(chain)
		}
	}))
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if s.CompletedOps() != 50 {
		t.Fatalf("%d operations completed, want 50", s.CompletedOps())
	}
	n := 0
	for f := s.root.flowFree; f != nil; f = f.nextFree {
		n++
	}
	if n != 1 {
		t.Errorf("%d flows on the free list after a chain of 50, want the one they shared", n)
	}
	if f := s.root.flowFree; f.op.Expander != nil || f.op.OnComplete != nil || f.outstanding != 0 {
		t.Errorf("pooled flow retains its operation: %+v", f)
	}
}

// countingEngine is the sequential engine counting the calls it receives.
type countingEngine struct {
	SequentialEngine
	binds, sweeps, shutdowns int
}

func (e *countingEngine) Bind([]Agent) { e.binds++ }
func (e *countingEngine) Sweep(active []Agent, fn func(Agent)) {
	e.sweeps++
	e.SequentialEngine.Sweep(active, fn)
}
func (e *countingEngine) Shutdown() { e.shutdowns++ }

// TestProductionLoopNeverCallsEngine pins the engine contract: Bind and
// Sweep belong to the reference tick, the per-tick sweep the Chapter-4
// engines parallelize, and the production window loop steps its agents
// itself — RunFor and RunUntilIdle on it call nothing on the engine but
// the one Shutdown. Both loops compute the same thing either way.
func TestProductionLoopNeverCallsEngine(t *testing.T) {
	data := binary.LittleEndian.AppendUint64(nil, calendarPropertySeeds[0])
	run := func(ref bool) (*Simulation, *countingEngine) {
		eng := &countingEngine{}
		s := fuzzPlatform(data, Config{Engine: eng, LoopFlags: refFlags(ref)}) // RunFor
		if err := s.RunUntilIdle(600); err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		return s, eng
	}
	got, prod := run(false)
	ref, tick := run(true)
	if prod.binds != 0 || prod.sweeps != 0 {
		t.Errorf("production loop called Bind %d and Sweep %d times, want 0", prod.binds, prod.sweeps)
	}
	if tick.binds == 0 || tick.sweeps == 0 {
		t.Errorf("reference loop called Bind %d and Sweep %d times, want both > 0", tick.binds, tick.sweeps)
	}
	for name, e := range map[string]*countingEngine{"production": prod, "reference": tick} {
		if e.shutdowns != 1 {
			t.Errorf("%s loop: Shutdown called %d times, want 1", name, e.shutdowns)
		}
	}
	if got.CompletedOps() == 0 {
		t.Fatal("the platform completed nothing; the contract was not exercised")
	}
	sameRun(t, ref, got)
}

// TestReserveAgentsGrowsTablesOnce: after ReserveAgents(n), registering n
// agents and sizing the calendar to them allocates nothing; the agent past
// the reservation still registers, under the next ID. Under the race
// detector calendar.grow costs one allocation a call: the compiler extends
// a slice in place for append(s, make([]T, n)...) only when it does not
// instrument the build, so there the make is a temporary of its own.
func TestReserveAgentsGrowsTablesOnce(t *testing.T) {
	const n = 100
	s := NewSimulation(Config{Seed: 1})
	lines := make([]DelayLine, n+1)
	for i := range lines {
		lines[i].InitAgent(AgentID(i), "line")
	}
	s.ReserveAgents(n)
	registered := 0
	want := 0.0
	if raceEnabled {
		want = 1
	}
	if allocs := testing.AllocsPerRun(n-1, func() {
		s.AddAgent(&lines[registered])
		registered++
		s.root.cal.grow(len(s.agents))
	}); allocs != want {
		t.Errorf("registering %d reserved agents: %v allocations each, want %v", n, allocs, want)
	}
	s.AddAgent(&lines[n])
	if s.AgentCount() != n+1 || lines[n].ID() != n {
		t.Errorf("%d agents after one past the reservation, the last with ID %d; want %d and %d",
			s.AgentCount(), lines[n].ID(), n+1, n)
	}
}

// AddGauge adjusts a named gauge by delta — the string-keyed wrapper around
// GaugeHandle/AddGaugeBy.
func (s *Simulation) AddGauge(key string, delta float64) { s.AddGaugeBy(s.GaugeHandle(key), delta) }
