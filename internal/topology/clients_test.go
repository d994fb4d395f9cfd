package topology

import (
	"strconv"
	"testing"

	"repro/internal/core"
)

// poolAllocs returns what a fresh simulation with one pool of n client
// slots allocates.
func poolAllocs(n int) float64 {
	spec := ClientSpec{Slots: n, NICGbps: 1, GHz: 3, DiskMBs: 100}
	dc := &DataCenter{Name: "NA"}
	return testing.AllocsPerRun(20, func() {
		sim := core.NewSimulation(core.Config{})
		newClientPool(sim, dc, spec)
		sim.Shutdown()
	})
}

// TestClientPoolSlabs: a pool's slots and NICs are one slab each, so
// doubling the pool costs at most the extra slots' names, not a slot, a NIC,
// its queue and its arrival hook apiece. (The names are one string, and the
// simulation's agent tables grow by doubling, so the difference is a few
// allocations.)
func TestClientPoolSlabs(t *testing.T) {
	const n = 64
	small, large := poolAllocs(n), poolAllocs(2*n)
	t.Logf("%d slots: %v allocs; %d slots: %v", n, small, 2*n, large)
	if large-small > n {
		t.Errorf("a pool of %d slots allocates %v, of %d slots %v: more than the %d extra names",
			n, small, 2*n, large, n)
	}
}

// TestClientPoolRegistration: the pool registers its delay line and then
// slot i's NIC as "cnic:<dc>:<i>", in slot order under consecutive IDs, and
// Next hands out the slots themselves, round-robin.
func TestClientPoolRegistration(t *testing.T) {
	sim := core.NewSimulation(core.Config{})
	defer sim.Shutdown()
	p := newClientPool(sim, &DataCenter{Name: "EU"}, ClientSpec{Slots: 12, NICGbps: 1, GHz: 3, DiskMBs: 100})
	if p.Local.ID() != 0 || p.Local.Name() != "clocal:EU" {
		t.Fatalf("delay line registered as (%d, %q)", p.Local.ID(), p.Local.Name())
	}
	for i := range p.Slots {
		s := &p.Slots[i]
		if s.Index != i || s.Pool != p {
			t.Fatalf("slot %d: Index %d, pool %p, want %d, %p", i, s.Index, s.Pool, i, p)
		}
		if id, name := s.NIC.ID(), s.NIC.Name(); id != core.AgentID(i+1) || name != "cnic:EU:"+strconv.Itoa(i) {
			t.Fatalf("slot %d: NIC registered as (%d, %q)", i, id, name)
		}
	}
	for round := 0; round < 2; round++ {
		for i := range p.Slots {
			if got := p.Next(); got != &p.Slots[i] {
				t.Fatalf("round %d: Next handed out slot %d, want %d", round, got.Index, i)
			}
		}
	}
}
