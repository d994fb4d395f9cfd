// Package hardware implements the queueing-network models of the data
// center components (§3.4.2), each as a core.Agent:
//
//   - CPU: p x M/M/q FCFS — one FCFS queue with q core-servers per socket
//     (Fig. 3-4); tasks carry cycle demands consumed at the core frequency.
//   - Memory: the only component not modeled as a queue — cache-hit bypass
//     and occupancy accounting (Fig. 3-5).
//   - NIC and network switch: M/M/1 FCFS (Fig. 3-6 left/center).
//   - Network link: M/M/1/k PS with constant latency (Fig. 3-6 right).
//   - Disk: controller-cache queue chained to a drive queue.
//   - RAID: an n-way fork-join of disks behind a disk-array controller
//     cache (Fig. 3-7).
//   - SAN: fibre-channel switch, disk-array controller cache and
//     fibre-channel arbitrated loop ahead of the fork-join (Fig. 3-8).
//
// Demand units: CPU demands are cycles; network demands are bytes (rates
// derived from Gbps/Mbps specs divided by 8); storage demands are bytes.
package hardware

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/queueing"
)

// CPUSpec describes a multi-socket multi-core processor.
type CPUSpec struct {
	Sockets  int     // p
	Cores    int     // q per socket
	GHz      float64 // per-core frequency
	HTFactor float64 // hyper-threading speedup factor (>= 1, default 1)
}

func (s CPUSpec) validate() error {
	if s.Sockets <= 0 || s.Cores <= 0 || s.GHz <= 0 {
		return fmt.Errorf("hardware: invalid CPUSpec %+v", s)
	}
	return nil
}

// TotalCores returns p*q.
func (s CPUSpec) TotalCores() int { return s.Sockets * s.Cores }

// CPU models a p-socket q-core processor as p FCFS queues with q servers
// each (Fig. 3-4). Incoming tasks are assigned to sockets round-robin.
type CPU struct {
	core.AgentBase
	spec    CPUSpec
	sockets []*queueing.FCFS
	rr      int

	derate  float64 // fault brown-out factor in (0, 1]; 1 = healthy
	reserve float64 // fluid-tier reserved capacity fraction in [0, 1)
}

// NewCPU creates and registers a CPU agent.
func NewCPU(sim *core.Simulation, name string, spec CPUSpec) *CPU {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	if spec.HTFactor <= 0 {
		spec.HTFactor = 1
	}
	c := &CPU{spec: spec, derate: 1}
	rate := spec.GHz * 1e9 * spec.HTFactor // cycles per second per core
	for i := 0; i < spec.Sockets; i++ {
		q := queueing.NewFCFS(spec.Cores, rate)
		q.SetNotify(c.MarkDirty) // sockets only receive external enqueues
		c.sockets = append(c.sockets, q)
	}
	c.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(c)
	return c
}

// Spec returns the processor specification.
func (c *CPU) Spec() CPUSpec { return c.spec }

// Rate returns the current per-core service rate in cycles/second
// (reflecting any Derate): a task's service on any core takes at least
// Demand/Rate seconds.
func (c *CPU) Rate() float64 { return c.sockets[0].Rate() }

// Derate scales every core's service rate to factor times the healthy rate
// (a browned-out data center running on reduced power). The factor is
// absolute against the spec rate, not cumulative; factor 1 restores full
// speed. In-service tasks finish their remaining cycles at the new rate.
// Callers must invoke it from a sequential phase and bracket it with
// Sync/MarkDirty on this agent, which the topology-layer helpers do.
// Panics on factor outside (0, 1] — a fully dead DC is modeled by
// isolating it, not by a zero rate.
func (c *CPU) Derate(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("hardware: CPU derate factor %v outside (0, 1]", factor))
	}
	c.derate = factor
	c.applyRate()
}

// Reserve withholds a fraction of every core's capacity for analytically
// aggregated (fluid) traffic: discrete tasks see only the residual rate, so
// a tier shared between a fluid flow and discrete cascades reports honest
// queueing for the latter. The fraction is absolute — successive calls
// replace, not compound — and composes multiplicatively with any fault
// Derate in effect. Like Derate, callers must invoke it from a sequential
// phase and bracket it with Sync/MarkDirty on this agent (the
// topology.Tier.ReserveCPU helper does). Panics outside [0, 1): a flow
// claiming the whole tier must be rejected by the fluid saturation guard
// upstream, not silently zero the rate.
func (c *CPU) Reserve(frac float64) {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("hardware: CPU reserve fraction %v outside [0, 1)", frac))
	}
	c.reserve = frac
	c.applyRate()
}

// Reserved returns the capacity fraction currently withheld by Reserve.
func (c *CPU) Reserved() float64 { return c.reserve }

// applyRate recomputes the per-core service rate from the spec and the two
// absolute factors. In-service tasks finish their remaining cycles at the
// new rate.
func (c *CPU) applyRate() {
	rate := c.spec.GHz * 1e9 * c.spec.HTFactor * c.derate * (1 - c.reserve)
	for _, s := range c.sockets {
		s.SetRate(rate)
	}
}

// Enqueue assigns the task to the next socket round-robin, after catching
// up any ticks the bulk-dense loop deferred. The socket's notify hook
// forwards the activation/invalidation to the agent.
func (c *CPU) Enqueue(t *queueing.Task) {
	c.Sync()
	c.sockets[c.rr].Enqueue(t)
	c.rr = (c.rr + 1) % len(c.sockets)
}

// Step advances every socket queue.
func (c *CPU) Step(dt float64) {
	for _, s := range c.sockets {
		s.Step(dt, c.BufferDone)
	}
}

// StepN advances every socket through n quiet ticks in bulk. The fallback
// is whole-agent: if any socket might complete work in the window, all
// sockets replay tick by tick so completions buffer in the same
// tick-major order the plain loop produces.
func (c *CPU) StepN(n int, dt float64) {
	span := float64(n) * dt
	for _, s := range c.sockets {
		if !s.CanBulk(span) {
			for i := 0; i < n; i++ {
				c.Step(dt)
			}
			return
		}
	}
	for _, s := range c.sockets {
		s.BulkStep(n, dt)
	}
}

// Idle reports whether all sockets are empty.
func (c *CPU) Idle() bool {
	for _, s := range c.sockets {
		if !s.Idle() {
			return false
		}
	}
	return true
}

// Horizon returns the time until the earliest completion on any socket.
func (c *CPU) Horizon() float64 {
	h := math.Inf(1)
	for _, s := range c.sockets {
		if sh := s.Horizon(); sh < h {
			h = sh
		}
	}
	return h
}

// TakeBusy returns accumulated busy core-seconds across all sockets since
// the last call. Dividing by TotalCores x window yields CPU utilization.
func (c *CPU) TakeBusy() float64 {
	b := 0.0
	for _, s := range c.sockets {
		b += s.TakeBusy()
	}
	return b
}

// QueueDepth reports the total number of waiting (not in service) tasks,
// used by least-loaded balancing.
func (c *CPU) QueueDepth() int {
	n := 0
	for _, s := range c.sockets {
		n += s.Waiting() + s.InService()
	}
	return n
}

var _ core.QueueAgent = (*CPU)(nil)
