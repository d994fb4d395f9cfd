package hardware

import (
	"testing"

	"repro/internal/core"
)

// TestConstructorAllocs pins what building each component allocates: the
// agent itself, with its queues and RNG state inside it, plus one slab per
// repeated part — a CPU's sockets and each of their in-service arrays, a
// store's stages, drive lanes and miss buffer. A queue behind a pointer of
// its own, an arrival hook bound as a closure or an RNG allocated apart
// shows here as a higher count. Registering many agents on one simulation
// amortises the growth of its agent tables to nothing per agent.
func TestConstructorAllocs(t *testing.T) {
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0.1}
	cases := []struct {
		name  string
		want  float64
		build func(*core.Simulation)
	}{
		{"NIC", 1, func(s *core.Simulation) { NewNIC(s, "nic", 10) }},
		{"Switch", 1, func(s *core.Simulation) { NewSwitch(s, "sw", 40) }},
		{"Link", 1, func(s *core.Simulation) { NewLink(s, "link", LinkSpec{Gbps: 1, LatencyMS: 20}) }},
		// The agent, the socket slab and one in-service array per socket.
		{"CPU", 4, func(s *core.Simulation) { NewCPU(s, "cpu", CPUSpec{Sockets: 2, Cores: 4, GHz: 2.5}) }},
		// The agent, the stage slab, the lane slab and the miss buffer.
		{"RAID", 4, func(s *core.Simulation) {
			NewRAID(s, "raid", RAIDSpec{Disks: 8, Disk: disk, CtrlGbps: 4, HitRate: 0.2})
		}},
		{"SAN", 4, func(s *core.Simulation) {
			NewSAN(s, "san", SANSpec{Disks: 20, Disk: disk, FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 0.2})
		}},
		{"Memory", 1, func(*core.Simulation) { NewMemory(64e9, 0.3, 7) }},
	}
	for _, c := range cases {
		sim := core.NewSimulation(core.Config{Seed: 1})
		if got := testing.AllocsPerRun(200, func() { c.build(sim) }); got != c.want {
			t.Errorf("New%s: %v allocs, want %v", c.name, got, c.want)
		}
		sim.Shutdown()
	}
}

// TestNICInitInPlace: a NIC set up in a slab registers under the ID and
// name NewNIC would give it and serves at the same rate, allocating nothing
// of its own.
func TestNICInitInPlace(t *testing.T) {
	fresh, slab := core.NewSimulation(core.Config{}), core.NewSimulation(core.Config{})
	defer fresh.Shutdown()
	defer slab.Shutdown()
	nics := make([]NIC, 3)
	for i := range nics {
		want := NewNIC(fresh, "cnic", 10)
		n := &nics[i]
		n.Init(slab, "cnic", 10)
		if n.ID() != want.ID() || n.Name() != want.Name() || n.Rate() != want.Rate() {
			t.Fatalf("slab NIC %d = (%d, %q, %v), want (%d, %q, %v)",
				i, n.ID(), n.Name(), n.Rate(), want.ID(), want.Name(), want.Rate())
		}
	}
	more := make([]NIC, 201)
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		more[i].Init(slab, "cnic", 10)
		i++
	}); got != 0 {
		t.Errorf("NIC.Init: %v allocs, want 0", got)
	}
}
