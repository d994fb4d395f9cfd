package topology

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
)

// Every hardware agent's isolated cost is what one task costs it alone: on
// an idle simulation a one-stage plan completes within one step of
// PlanDuration — the agent's IsolatedCost plus the one forwarding step
// PlanDuration adds per stage — for each agent kind, with every cache
// missing.
//
// RAID and SAN are the exception the test pins rather than hides. Their
// IsolatedCost charges one step per internal handoff (RAID: dacc to the disk
// controller caches to the drives; SAN: two more around dacc), but a stage
// that finishes a request mid-tick hands it to the next queue, which the
// store steps later in the same tick: a handoff costs no step and gains up
// to one. So the run lands up to two steps per handoff below PlanDuration,
// never above it by more than a step. Calibrated client work is fitted
// against these estimates, so correcting them moves results.
func TestPlanDurationMatchesIsolatedStagePerAgent(t *testing.T) {
	const step = 0.001
	disk := hardware.DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	for _, c := range []struct {
		name     string
		demand   float64
		handoffs int // internal handoffs between the agent's queues
		build    func(*core.Simulation) core.QueueAgent
	}{
		{"CPU", 3.3e8, 0, func(s *core.Simulation) core.QueueAgent {
			return hardware.NewCPU(s, "cpu", hardware.CPUSpec{Sockets: 2, Cores: 4, GHz: 2, HTFactor: 1.3})
		}},
		{"NIC", 2.7e6, 0, func(s *core.Simulation) core.QueueAgent { return newNIC(s, "nic", 1) }},
		{"Switch", 2.7e7, 0, func(s *core.Simulation) core.QueueAgent { return newSwitch(s, "sw", 10) }},
		{"Link", 2.7e6, 0, func(s *core.Simulation) core.QueueAgent {
			return hardware.NewLink(s, "link", hardware.LinkSpec{Gbps: 1, LatencyMS: 12.3})
		}},
		{"RAID", 5.5e7, 2, func(s *core.Simulation) core.QueueAgent {
			return hardware.NewRAID(s, "raid", hardware.RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 4, HitRate: 0})
		}},
		{"SAN", 5.5e7, 4, func(s *core.Simulation) core.QueueAgent {
			return hardware.NewSAN(s, "san", hardware.SANSpec{
				Disks: 4, Disk: disk, FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 2, HitRate: 0,
			})
		}},
	} {
		sim := core.NewSimulation(core.Config{Step: step, Seed: 3})
		plan := core.MessagePlan{Stages: []core.Stage{{Queue: c.build(sim), Demand: c.demand}}}
		want := PlanDuration(plan, step)
		if want < 20*step {
			t.Fatalf("%s: isolated cost %v s spans too few steps to test", c.name, want)
		}
		lo, hi := want-float64(1+2*c.handoffs)*step, want+step
		if got := runOp(t, sim, c.name, plan); got < lo-1e-9 || got > hi+1e-9 {
			t.Errorf("%s: one task took %v s, want within [%v, %v] around PlanDuration %v s",
				c.name, got, lo, hi, want)
		}
	}
}
