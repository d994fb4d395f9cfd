package hardware

import (
	"testing"

	"repro/internal/core"
)

// TestConstructorAllocs pins what building each component allocates: the
// agent itself, with its queues and RNG state inside it, plus one slab per
// kind of repeated part (Parts) — a CPU's socket queues and their in-service
// arrays, a store's stage and drive-lane queues and its miss buffer. A queue
// behind a pointer of its own or an RNG allocated apart shows here as a
// higher count. Registering many agents on one simulation
// amortises the growth of its agent tables to nothing per agent.
func TestConstructorAllocs(t *testing.T) {
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0.1}
	cases := []struct {
		name  string
		want  float64
		build func(*core.Simulation)
	}{
		{"NIC", 1, func(s *core.Simulation) { newNIC(s, "nic", 10) }},
		{"Switch", 1, func(s *core.Simulation) { newSwitch(s, "sw", 40) }},
		{"Link", 1, func(s *core.Simulation) { NewLink(s, "link", LinkSpec{Gbps: 1, LatencyMS: 20}) }},
		// The agent, the socket queues and the sockets' in-service arrays.
		{"CPU", 3, func(s *core.Simulation) { NewCPU(s, "cpu", CPUSpec{Sockets: 2, Cores: 4, GHz: 2.5}) }},
		// The agent, the stage and lane queues and the miss buffer.
		{"RAID", 3, func(s *core.Simulation) {
			NewRAID(s, "raid", RAIDSpec{Disks: 8, Disk: disk, CtrlGbps: 4, HitRate: 0.2})
		}},
		{"SAN", 3, func(s *core.Simulation) {
			NewSAN(s, "san", SANSpec{Disks: 20, Disk: disk, FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 0.2})
		}},
		{"Memory", 1, func(*core.Simulation) { memSink = newMemory(64e9, 0.3, 7) }},
	}
	for _, c := range cases {
		sim := core.NewSimulation(core.Config{Seed: 1})
		if got := testing.AllocsPerRun(200, func() { c.build(sim) }); got != c.want {
			t.Errorf("New%s: %v allocs, want %v", c.name, got, c.want)
		}
		sim.Shutdown()
	}
}

// memSink keeps a memory the test builds on the heap, as a caller keeping
// it would: an inlined newMemory whose result is dropped allocates nothing.
var memSink *Memory

// TestInitAllocs pins what setting a component up in place allocates: Init
// is New without the agent's own allocation, so a component that repeats
// no part (NIC, link, memory) costs nothing, and a CPU or RAID costs only
// the part slabs TestConstructorAllocs names. A tier keeps its servers'
// components in slabs of this kind, and their parts in one Parts: its
// Reserve makes the three part slabs for the whole batch, and every CPU and
// RAID set up from it by InitFrom then costs nothing.
func TestInitAllocs(t *testing.T) {
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0.1}
	const runs = 200
	cases := []struct {
		name string
		want float64
		init func(*core.Simulation, int)
	}{
		{"NIC", 0, func(s *core.Simulation, i int) { nicSlab[i].Init(s, "nic", 10) }},
		{"Link", 0, func(s *core.Simulation, i int) { linkSlab[i].Init(s, "link", LinkSpec{Gbps: 1, LatencyMS: 20}) }},
		{"Memory", 0, func(_ *core.Simulation, i int) { memSlab[i].Init(64e9, 0.3, 7) }},
		// The socket queues and the sockets' in-service arrays.
		{"CPU", 2, func(s *core.Simulation, i int) { cpuSlab[i].Init(s, "cpu", CPUSpec{Sockets: 2, Cores: 4, GHz: 2.5}) }},
		// The stage and lane queues and the miss buffer.
		{"RAID", 2, func(s *core.Simulation, i int) {
			raidSlab[i].Init(s, "raid", RAIDSpec{Disks: 8, Disk: disk, CtrlGbps: 4, HitRate: 0.2})
		}},
	}
	nicSlab, linkSlab, memSlab = make([]NIC, runs+1), make([]Link, runs+1), make([]Memory, runs+1)
	cpuSlab, raidSlab = make([]CPU, runs+1), make([]RAID, runs+1)
	for _, c := range cases {
		sim := core.NewSimulation(core.Config{Seed: 1})
		i := 0
		if got := testing.AllocsPerRun(runs, func() { c.init(sim, i); i++ }); got != c.want {
			t.Errorf("%s.Init: %v allocs, want %v", c.name, got, c.want)
		}
		sim.Shutdown()
	}

	// The batch: one Parts for runs+1 servers' CPUs and RAIDs is three
	// allocations, and carving a server's CPU and RAID from it none.
	cpu, raid := CPUSpec{Sockets: 2, Cores: 4, GHz: 2.5}, RAIDSpec{Disks: 8, Disk: disk, CtrlGbps: 4, HitRate: 0.2}
	var parts Parts
	if got := testing.AllocsPerRun(1, func() { parts.Reserve(runs+1, &cpu, &raid) }); got != 3 {
		t.Errorf("Parts.Reserve: %v allocs, want 3", got)
	}
	cpuSlab, raidSlab = make([]CPU, runs+1), make([]RAID, runs+1)
	sim := core.NewSimulation(core.Config{Seed: 1})
	defer sim.Shutdown()
	sim.ReserveAgents(2 * (runs + 1))
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		cpuSlab[i].InitFrom(sim, "cpu", cpu, &parts)
		raidSlab[i].InitFrom(sim, "raid", raid, &parts)
		i++
	}); got != 0 {
		t.Errorf("CPU.InitFrom + RAID.InitFrom from reserved parts: %v allocs, want 0", got)
	}
}

var (
	nicSlab  []NIC
	linkSlab []Link
	memSlab  []Memory
	cpuSlab  []CPU
	raidSlab []RAID
)

// TestInitMatchesNew: a component set up in place registers under the ID
// and name its constructor would give it and starts in the same state.
func TestInitMatchesNew(t *testing.T) {
	fresh, slab := core.NewSimulation(core.Config{Seed: 3}), core.NewSimulation(core.Config{Seed: 3})
	defer fresh.Shutdown()
	defer slab.Shutdown()
	cpuSpec := CPUSpec{Sockets: 2, Cores: 4, GHz: 2.5}
	raidSpec := RAIDSpec{Disks: 8, Disk: DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0.1}, CtrlGbps: 4, HitRate: 0.2}
	linkSpec := LinkSpec{Gbps: 1, LatencyMS: 20}
	var cpus [2]CPU
	var links [2]Link
	var raids [2]RAID
	var mems [2]Memory
	for i := range 2 {
		wc, wl, wr := NewCPU(fresh, "cpu", cpuSpec), NewLink(fresh, "link", linkSpec), NewRAID(fresh, "raid", raidSpec)
		cpus[i].Init(slab, "cpu", cpuSpec)
		links[i].Init(slab, "link", linkSpec)
		raids[i].Init(slab, "raid", raidSpec)
		for _, p := range []struct{ got, want core.Agent }{{&cpus[i], wc}, {&links[i], wl}, {&raids[i], wr}} {
			if p.got.ID() != p.want.ID() || p.got.Name() != p.want.Name() {
				t.Fatalf("in place (%d, %q), constructed (%d, %q)", p.got.ID(), p.got.Name(), p.want.ID(), p.want.Name())
			}
		}
		if cpus[i].Rate() != wc.Rate() || links[i].Rate() != wl.Rate() || links[i].Latency() != wl.Latency() ||
			raids[i].Disks() != wr.Disks() || raids[i].Spec() != wr.Spec() {
			t.Fatalf("component %d set up in place differs from its constructed twin", i)
		}
		want := newMemory(64e9, 0.3, uint64(i))
		mems[i].Init(64e9, 0.3, uint64(i))
		for range 100 {
			if mems[i].Hit() != want.Hit() {
				t.Fatalf("memory %d set up in place draws other hits", i)
			}
		}
	}
}

// TestNICInitInPlace: a NIC set up in a slab registers under the ID and
// name a NIC of its own would get and serves at the same rate, allocating
// nothing of its own.
func TestNICInitInPlace(t *testing.T) {
	fresh, slab := core.NewSimulation(core.Config{}), core.NewSimulation(core.Config{})
	defer fresh.Shutdown()
	defer slab.Shutdown()
	nics := make([]NIC, 3)
	for i := range nics {
		want := newNIC(fresh, "cnic", 10)
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
