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
//
// Each component is one allocation: its queues (queueing.FCFS and PS, set
// up in place by Init) and its RNG state (a rand.PCG value) live inside the
// agent. What a component repeats — a CPU's sockets, a store's stages, a
// disk array's drive lanes — is a piece of exact length, never appended to
// and walked by index: a queue that has been set up must not be copied. A
// component is set up and registered in place by its Init (CPU, Memory,
// NIC, Switch, Link, RAID, SAN; NewCPU, NewLink, NewRAID and NewSAN wrap
// theirs), so a platform keeps each component kind in one slab, and its
// CPUs, RAIDs and SANs carve their repeated parts from one Parts
// (InitFrom).
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

// Validate states what a usable spec is as one conjunction, so NaN and ±Inf
// — for which a negated range check would pass — are rejected. A
// non-positive HTFactor selects the default.
func (s CPUSpec) Validate() error {
	if !(s.Sockets > 0 && s.Cores > 0 && s.GHz > 0 && finite(s.GHz, s.HTFactor)) {
		return fmt.Errorf("hardware: invalid CPUSpec %+v", s)
	}
	return nil
}

// finite reports whether no x is NaN or ±Inf.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TotalCores returns p*q.
func (s CPUSpec) TotalCores() int { return s.Sockets * s.Cores }

// CPU models a p-socket q-core processor as p FCFS queues with q servers
// each (Fig. 3-4). Incoming tasks are assigned to sockets round-robin.
type CPU struct {
	core.AgentBase
	spec    CPUSpec
	sockets []queueing.FCFS // made once at p; walked by index
	rr      int

	derate  float64 // fault brown-out factor in (0, 1]; 1 = healthy
	reserve float64 // fluid-tier reserved capacity fraction in [0, 1)
}

// NewCPU creates and registers a CPU agent.
func NewCPU(sim *core.Simulation, name string, spec CPUSpec) *CPU {
	c := new(CPU)
	c.Init(sim, name, spec)
	return c
}

// Init sets up the zero CPU c in place and registers it: what NewCPU does,
// for a CPU that lives in a slab of CPUs made once. It is InitFrom with
// parts reserved for this one CPU: its sockets and, for multi-core sockets,
// their in-service arrays, two allocations. c must not move or be copied
// afterwards.
func (c *CPU) Init(sim *core.Simulation, name string, spec CPUSpec) {
	var p Parts
	p.Reserve(1, &spec, nil)
	c.InitFrom(sim, name, spec, &p)
}

// InitFrom is Init with the sockets and their in-service arrays carved from
// parts, which a platform counts and makes for all its components at once.
func (c *CPU) InitFrom(sim *core.Simulation, name string, spec CPUSpec, parts *Parts) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.HTFactor <= 0 {
		spec.HTFactor = 1
	}
	c.spec, c.sockets, c.derate = spec, parts.queues.take(spec.Sockets), 1
	rate := spec.GHz * 1e9 * spec.HTFactor // cycles per second per core
	for i := range c.sockets {
		q := &c.sockets[i]
		var slots []*queueing.Task
		if spec.Cores > 1 {
			slots = parts.slots.take(spec.Cores)[:0]
		}
		q.InitIn(spec.Cores, rate, slots)
	}
	c.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(c)
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
// It must run in a sequential phase; it replays the ticks the loop deferred
// (Sync) before the change and rekeys the agent's calendar entry
// (MarkDirty) after it. Panics on factor outside (0, 1] — a fully dead DC
// is modeled by isolating it, not by a zero rate.
func (c *CPU) Derate(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("hardware: CPU derate factor %v outside (0, 1]", factor))
	}
	c.setFactors(factor, c.reserve)
}

// Reserve withholds a fraction of every core's capacity for analytically
// aggregated (fluid) traffic: discrete tasks see only the residual rate, so
// a tier shared between a fluid flow and discrete cascades reports honest
// queueing for the latter. The fraction is absolute — successive calls
// replace, not compound — and composes multiplicatively with any fault
// Derate in effect. Like Derate it must run in a sequential phase and
// brackets itself with Sync/MarkDirty. Panics outside [0, 1): a flow
// claiming the whole tier must be rejected by the fluid saturation guard
// upstream, not silently zero the rate.
func (c *CPU) Reserve(frac float64) {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("hardware: CPU reserve fraction %v outside [0, 1)", frac))
	}
	c.setFactors(c.derate, frac)
}

// setFactors sets the two absolute factors and recomputes the per-core
// service rate from them and the spec, between Sync and MarkDirty.
// In-service tasks finish their remaining cycles at the new rate.
func (c *CPU) setFactors(derate, reserve float64) {
	c.Sync()
	c.derate, c.reserve = derate, reserve
	rate := c.spec.GHz * 1e9 * c.spec.HTFactor * c.derate * (1 - c.reserve)
	for i := range c.sockets {
		c.sockets[i].SetRate(rate)
	}
	c.MarkDirty()
}

// Enqueue assigns the task to the next socket round-robin and reports the
// bound on its first event there (FCFS.Admit; core.QueueAgent).
func (c *CPU) Enqueue(t *queueing.Task) float64 {
	h := c.sockets[c.rr].Admit(t)
	c.rr = (c.rr + 1) % len(c.sockets)
	return h
}

// Step advances every socket queue.
func (c *CPU) Step(dt float64) {
	for i := range c.sockets {
		c.sockets[i].Step(dt, c.BufferDone)
	}
}

// StepN advances every socket through n quiet ticks in bulk; no socket may
// complete work in them (core.BulkStepper).
func (c *CPU) StepN(n int, dt float64) {
	for i := range c.sockets {
		c.sockets[i].BulkStep(n, dt)
	}
}

// Idle reports whether all sockets are empty.
func (c *CPU) Idle() bool {
	for i := range c.sockets {
		if !c.sockets[i].Idle() {
			return false
		}
	}
	return true
}

// Horizon returns the time until the earliest completion on any socket.
func (c *CPU) Horizon() float64 {
	h := math.Inf(1)
	for i := range c.sockets {
		if sh := c.sockets[i].Horizon(); sh < h {
			h = sh
		}
	}
	return h
}

// TakeBusy returns accumulated busy core-seconds across all sockets since
// the last call. Dividing by TotalCores x window yields CPU utilization.
func (c *CPU) TakeBusy() float64 {
	b := 0.0
	for i := range c.sockets {
		b += c.sockets[i].TakeBusy()
	}
	return b
}

// QueueDepth reports the total number of waiting (not in service) tasks,
// used by least-loaded balancing.
func (c *CPU) QueueDepth() int {
	n := 0
	for i := range c.sockets {
		s := &c.sockets[i]
		n += s.Waiting() + s.InService()
	}
	return n
}

// IsolatedCost returns the contention-free service time of demand cycles on
// one core at the spec rate.
func (c *CPU) IsolatedCost(demand, _ float64) float64 {
	return demand / (c.spec.GHz * 1e9 * c.spec.HTFactor)
}

var _ core.QueueAgent = (*CPU)(nil)
