package topology

import (
	"fmt"

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
// clients use distinct NICs.
type ClientPool struct {
	DC    *DataCenter
	Spec  ClientSpec
	Slots []*ClientSlot
	// Local models client-side processing (CPU cycles at the client's GHz,
	// reads/writes at the client's disk rate) as pure delay.
	Local *core.DelayLine
	rr    int
}

func newClientPool(sim *core.Simulation, dc *DataCenter, spec ClientSpec) *ClientPool {
	p := &ClientPool{
		DC:    dc,
		Spec:  spec,
		Local: core.NewDelayLine(sim, "clocal:"+dc.Name),
	}
	for i := 0; i < spec.Slots; i++ {
		p.Slots = append(p.Slots, &ClientSlot{
			Index: i,
			NIC:   hardware.NewNIC(sim, fmt.Sprintf("cnic:%s:%d", dc.Name, i), spec.NICGbps),
			Pool:  p,
		})
	}
	return p
}

// Next hands out the next client slot round-robin.
func (p *ClientPool) Next() *ClientSlot {
	s := p.Slots[p.rr]
	p.rr = (p.rr + 1) % len(p.Slots)
	return s
}

// LocalDelay converts client-side costs into seconds of uncontended local
// processing: cycles at the client CPU frequency plus bytes at the client
// disk throughput.
func (p *ClientPool) LocalDelay(cycles, diskBytes float64) float64 {
	return cycles/(p.Spec.GHz*1e9) + diskBytes/(p.Spec.DiskMBs*1e6)
}
