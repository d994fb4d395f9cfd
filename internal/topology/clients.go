package topology

import (
	"repro/internal/core"
	"repro/internal/hardware"
)

// ClientSlot is one client holon: its own NIC (clients do not contend with
// each other for network cards) plus references to the shared client-side
// delay line that models local CPU and disk time without contention —
// thousands of independent workstations do not share those resources.
type ClientSlot struct {
	Index int
	NIC   *hardware.NIC
	Pool  *ClientPool
}

// ClientPool is the client population of one data center. Slots are
// materialized up front (idle agents cost almost nothing per tick) and
// handed out round-robin to launched operations, so concurrently active
// clients use distinct NICs. The slots are one slab, and their NICs another,
// each made once at the pool's size and never appended to, so a slot's
// address (Next) and its NIC's stay fixed.
type ClientPool struct {
	DC    *DataCenter
	Spec  ClientSpec
	Slots []ClientSlot
	// Local models client-side processing (CPU cycles at the client's GHz,
	// reads/writes at the client's disk rate) as pure delay.
	Local *core.DelayLine
	rr    int
}

// Next hands out the next client slot round-robin.
func (p *ClientPool) Next() *ClientSlot {
	s := &p.Slots[p.rr]
	p.rr = (p.rr + 1) % len(p.Slots)
	return s
}

// LocalDelay converts client-side costs into seconds of uncontended local
// processing: cycles at the client CPU frequency plus bytes at the client
// disk throughput.
func (p *ClientPool) LocalDelay(cycles, diskBytes float64) float64 {
	return cycles/(p.Spec.GHz*1e9) + diskBytes/(p.Spec.DiskMBs*1e6)
}
