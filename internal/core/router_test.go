package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/queueing"
)

// pushAgent is a queue agent at its plainest: its Enqueue pushes onto a
// single-server FCFS queue and reports what the queue says — the task's
// first event (FCFS.Admit), or core.Rekey when rekey is set — and never
// syncs, activates or keys itself. Everything else is the queue's own.
type pushAgent struct {
	core.AgentBase
	q     queueing.FCFS
	rekey bool
}

func (a *pushAgent) Enqueue(t *queueing.Task) float64 {
	if a.rekey {
		a.q.Enqueue(t)
		return core.Rekey
	}
	return a.q.Admit(t)
}

func (a *pushAgent) Step(dt float64)         { a.q.Step(dt, a.BufferDone) }
func (a *pushAgent) StepN(n int, dt float64) { a.q.BulkStep(n, dt) }
func (a *pushAgent) Idle() bool              { return a.q.Idle() }
func (a *pushAgent) Horizon() float64        { return a.q.Horizon() }

// launches starts one single-stage operation on its agent at each instant
// of at, in order, and parks once they are all out.
type launches struct {
	agent   core.QueueAgent
	at      []float64
	demands []float64
	next    int
}

func (l *launches) Poll(s *core.Simulation, now float64) {
	for l.next < len(l.at) && now >= l.at[l.next] {
		s.StartOp(core.OpRun{Name: "OP", DC: "NA", NumSteps: 1, Expander: &core.OnePlan{{
			Stages: []core.Stage{{Queue: l.agent, Demand: l.demands[l.next]}},
		}}})
		l.next++
	}
}

func (l *launches) NextPoll(float64) float64 {
	if l.next < len(l.at) {
		return l.at[l.next]
	}
	return math.Inf(1)
}

// TestRouterSyncsAndKeysPlainEnqueue: the flow router alone keeps a lazily
// stepped agent exact when work arrives. An agent whose Enqueue only pushes
// — with a bound or with Rekey — is fed three operations on the production
// loop: a long one, a short one that lands behind it while the agent is
// lazy, and one after a quiet stretch in which the agent went idle and the
// clock jumped. Each completes at the tick, and with the response, a NIC of
// the same rate gives it, bit for bit, and the reference loop agrees. On
// the production loop the jumps are the NIC's too: an arrival keys the agent
// at its first event, never a tick early.
func TestRouterSyncsAndKeysPlainEnqueue(t *testing.T) {
	const gbps = 1 // 125e6 bytes/s
	at := []float64{0, 0.2, 3}
	demands := []float64{63e6, 10e6, 20e6} // 0.504 s, 0.08 s, 0.16 s
	run := func(ref bool, agent func(*core.Simulation) core.QueueAgent) *core.Simulation {
		s := core.NewSimulation(core.Config{Step: 0.01, Seed: 1, CollectEvery: 1 << 20,
			LoopFlags: core.LoopFlags{NoFastForward: ref}})
		s.AddSource(&launches{agent: agent(s), at: at, demands: demands})
		s.RunFor(4)
		return s
	}
	nic := func(s *core.Simulation) core.QueueAgent {
		n := new(hardware.NIC)
		n.Init(s, "nic", gbps)
		return n
	}
	base := run(false, nic)
	want := base.Responses.Series("OP", "NA")
	if want == nil || want.Len() != len(at) {
		t.Fatalf("the NIC completed %v, want %d operations", want, len(at))
	}
	for _, rekey := range []bool{false, true} {
		push := func(s *core.Simulation) core.QueueAgent {
			a := &pushAgent{rekey: rekey}
			a.q.Init(1, gbps*1e9/8)
			a.InitAgent(s.NextAgentID(), "push")
			s.AddAgent(a)
			return a
		}
		for _, ref := range []bool{false, true} {
			s := run(ref, push)
			got := s.Responses.Series("OP", "NA")
			if got == nil || got.Len() != want.Len() {
				t.Fatalf("rekey %v, reference loop %v: completed %v, want %d operations", rekey, ref, got, want.Len())
			}
			for i := range want.T {
				if math.Float64bits(got.T[i]) != math.Float64bits(want.T[i]) || math.Float64bits(got.V[i]) != math.Float64bits(want.V[i]) {
					t.Errorf("rekey %v, reference loop %v: operation %d done at %v after %v s, the NIC's at %v after %v s",
						rekey, ref, i, got.T[i], got.V[i], want.T[i], want.V[i])
				}
			}
			if ref {
				continue
			}
			if g, w := s.Stats(), base.Stats(); g.Jumps != w.Jumps || g.SkippedTicks != w.SkippedTicks {
				t.Errorf("rekey %v: %d jumps over %d ticks, the NIC's %d over %d", rekey, g.Jumps, g.SkippedTicks, w.Jumps, w.SkippedTicks)
			}
			if s.Stats().Jumps == 0 {
				t.Errorf("rekey %v: the production loop never jumped; there was no quiet stretch", rekey)
			}
		}
	}
}
