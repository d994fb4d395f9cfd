package topology

import (
	"strconv"

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

// newClientPool registers the pool's delay line, then slot i's NIC as
// "cnic:<dc>:<i>" in slot order. The names are cut from one string, so a
// pool costs a fixed number of allocations whatever its size.
func newClientPool(sim *core.Simulation, dc *DataCenter, spec ClientSpec) *ClientPool {
	p := &ClientPool{
		DC:    dc,
		Spec:  spec,
		Slots: make([]ClientSlot, spec.Slots),
		Local: core.NewDelayLine(sim, "clocal:"+dc.Name),
	}
	nics := make([]hardware.NIC, spec.Slots)
	prefix := "cnic:" + dc.Name + ":"
	var buf []byte
	for i := range p.Slots {
		buf = strconv.AppendInt(append(buf, prefix...), int64(i), 10)
	}
	names := string(buf)
	var digits [20]byte
	for i := range p.Slots {
		n := len(prefix) + len(strconv.AppendInt(digits[:0], int64(i), 10))
		nics[i].Init(sim, names[:n], spec.NICGbps)
		names = names[n:]
		p.Slots[i] = ClientSlot{Index: i, NIC: &nics[i], Pool: p}
	}
	return p
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
