package background

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

func testGrowth() GrowthModel {
	return GrowthModel{
		"NA": workload.BusinessDay(1000, 13, 22, 20),
		"EU": workload.BusinessDay(500, 8, 17, 10),
	}
}

func TestGrowthVolumeIntegration(t *testing.T) {
	g := testGrowth()
	// Inside the NA plateau the rate is constant 1000 MB/h.
	vol := g.VolumeMB("NA", 15*3600, 16*3600)
	if math.Abs(vol-1000) > 1 {
		t.Errorf("1h plateau volume = %v, want 1000", vol)
	}
	if v := g.VolumeMB("NA", 16*3600, 16*3600); v != 0 {
		t.Errorf("empty window volume = %v", v)
	}
	if v := g.VolumeMB("MARS", 0, 3600); v != 0 {
		t.Errorf("unknown DC volume = %v", v)
	}
}

func TestGrowthGlobalDaily(t *testing.T) {
	g := testGrowth()
	na := g.VolumeMB("NA", 0, 24*3600)
	eu := g.VolumeMB("EU", 0, 24*3600)
	if math.Abs(g.GlobalDailyMB()-(na+eu)) > 1e-6 {
		t.Error("GlobalDailyMB does not sum per-DC volumes")
	}
}

func TestPullPushSingleMaster(t *testing.T) {
	g := testGrowth()
	apm := workload.SingleMaster([]string{"NA", "EU"}, "NA")
	// Pull NA<-EU equals EU growth; push NA->EU equals NA growth (files
	// created at EU are not pushed back to EU).
	pull, err := PullVolumeMB(g, apm, "NA", "EU", 14*3600, 15*3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pull-500) > 1 {
		t.Errorf("pull = %v, want 500", pull)
	}
	push, err := PushVolumeMB(g, apm, "NA", "EU", 14*3600, 15*3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(push-1000) > 1 {
		t.Errorf("push = %v, want 1000 (NA-created files)", push)
	}
	if v, _ := PullVolumeMB(g, apm, "NA", "NA", 0, 3600); v != 0 {
		t.Errorf("self-pull = %v", v)
	}
}

// Property: ownership conserves volume — summing each master's pull from a
// source recovers that source's growth (every created file has one owner).
func TestOwnershipConservation(t *testing.T) {
	g := testGrowth()
	f := func(a, b uint8) bool {
		pa := float64(a%100) / 100
		apm := workload.AccessMatrix{
			"NA": {"NA": pa, "EU": 1 - pa},
			"EU": {"NA": 0.3, "EU": 0.7},
		}
		total := 0.0
		for _, m := range []string{"NA", "EU"} {
			v, err := PullVolumeMB(g, apm, m, "EU", 13*3600, 14*3600)
			if err != nil {
				return false
			}
			total += v
		}
		// EU growth owned by EU itself is not pulled by anyone; add it.
		total += g.VolumeMB("EU", 13*3600, 14*3600) * apm["EU"]["EU"]
		want := g.VolumeMB("EU", 13*3600, 14*3600)
		return math.Abs(total-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// syncInfra builds a master DC (app/db/fs/idx) plus one slave (fs only).
func syncInfra(t *testing.T) (*core.Simulation, *topology.Infrastructure) {
	t.Helper()
	srv := topology.ServerSpec{
		CPU:     hardware.CPUSpec{Sockets: 1, Cores: 8, GHz: 2.5},
		MemGB:   32,
		NICGbps: 10,
		RAID: &hardware.RAIDSpec{
			Disks: 8, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
			CtrlGbps: 8, HitRate: 0,
		},
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	tiers := func(withMaster bool) []topology.TierSpec {
		ts := []topology.TierSpec{
			{Name: "fs", Servers: 1, Server: srv, LocalLink: local},
		}
		if withMaster {
			ts = append(ts,
				topology.TierSpec{Name: "app", Servers: 1, Server: srv, LocalLink: local},
				topology.TierSpec{Name: "db", Servers: 1, Server: srv, LocalLink: local},
				topology.TierSpec{Name: "idx", Servers: 1, Server: srv, LocalLink: local},
			)
		}
		return ts
	}
	spec := topology.InfraSpec{
		DCs: []topology.DCSpec{
			{Name: "NA", SwitchGbps: 20, ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5}, Tiers: tiers(true)},
			{Name: "EU", SwitchGbps: 20, ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5}, Tiers: tiers(false)},
		},
		WAN: []topology.WANSpec{
			{From: "NA", To: "EU", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 45, Allocated: 0.2}},
		},
	}
	sim := core.NewSimulation(core.Config{Step: 0.05, Seed: 17, CollectEvery: 100})
	inf, err := topology.Build(sim, spec)
	if err != nil {
		t.Fatal(err)
	}
	return sim, inf
}

func TestSyncDaemonRunsCycles(t *testing.T) {
	sim, inf := syncInfra(t)
	// Constant modest growth so cycles are short.
	var flat workload.Curve
	for h := range flat {
		flat[h] = 60 // 60 MB/h => 15 MB per 15-min cycle
	}
	d := &SyncDaemon{
		Inf:      inf,
		Master:   "NA",
		APM:      workload.SingleMaster([]string{"NA", "EU"}, "NA"),
		Growth:   GrowthModel{"NA": flat, "EU": flat},
		Interval: 900,
	}
	sim.AddSource(d)
	sim.RunFor(2 * 3600) // two hours => 7 cycles launched (t=900..6300)
	if err := sim.RunUntilIdle(3600); err != nil {
		t.Fatal(err)
	}
	if n := d.Durations.Len(); n < 7 {
		t.Fatalf("completed cycles = %d, want >= 7", n)
	}
	if n := sim.Stats().ActiveFlows; n != 0 {
		t.Errorf("active cycles = %d after drain", n)
	}
	// Pull from EU and push to EU must both be recorded at 15 MB/cycle.
	pulls := d.PullMB["EU"]
	if pulls == nil || pulls.Len() == 0 {
		t.Fatal("no pull volumes recorded")
	}
	if math.Abs(pulls.V[0]-15) > 0.5 {
		t.Errorf("pull volume = %v MB, want ~15", pulls.V[0])
	}
	if st := d.MaxStalenessMin(); st <= 15 {
		t.Errorf("staleness = %v min, must exceed the 15-min interval", st)
	}
}

func TestSyncDaemonWANVolumeFlows(t *testing.T) {
	sim, inf := syncInfra(t)
	var flat workload.Curve
	for h := range flat {
		flat[h] = 120
	}
	d := &SyncDaemon{
		Inf:      inf,
		Master:   "NA",
		APM:      workload.SingleMaster([]string{"NA", "EU"}, "NA"),
		Growth:   GrowthModel{"NA": flat, "EU": flat},
		Interval: 900,
	}
	sim.AddSource(d)
	sim.RunFor(1860) // two cycles
	if err := sim.RunUntilIdle(3600); err != nil {
		t.Fatal(err)
	}
	// Pushes NA->EU carry ~30 MB per cycle; pulls EU->NA likewise.
	fwd := inf.WANLink("NA", "EU").TakeBusy()
	rev := inf.WANLink("EU", "NA").TakeBusy()
	if fwd < 50e6 {
		t.Errorf("NA->EU carried %v bytes, want >= 2 pushes of 30 MB", fwd)
	}
	if rev < 50e6 {
		t.Errorf("EU->NA carried %v bytes, want >= 2 pulls of 30 MB", rev)
	}
}

func TestSyncDaemonHourlyAggregation(t *testing.T) {
	d := &SyncDaemon{}
	d.PushMB = map[string]*metrics.Series{"EU": {Name: "EU"}}
	s := d.PushMB["EU"]
	s.Add(900, 10)  // hour 0
	s.Add(1800, 20) // hour 0
	s.Add(4000, 30) // hour 1
	got := d.HourlyPushMB("EU", 3)
	if got[0] != 30 || got[1] != 30 || got[2] != 0 {
		t.Errorf("HourlyPushMB = %v", got)
	}
	if d.DailyPushMB() != 60 {
		t.Errorf("DailyPushMB = %v", d.DailyPushMB())
	}
	if empty := d.HourlyPullMB("EU", 2); empty[0] != 0 {
		t.Errorf("HourlyPullMB on empty series = %v", empty)
	}
}

func TestIndexDaemonSequentialAndBacklog(t *testing.T) {
	sim, inf := syncInfra(t)
	var flat workload.Curve
	for h := range flat {
		flat[h] = 360 // 0.1 MB/s generation
	}
	d := &IndexDaemon{
		Inf:    inf,
		Master: "NA",
		APM:    workload.SingleMaster([]string{"NA", "EU"}, "NA"),
		Growth: GrowthModel{"NA": flat, "EU": flat},
		Gap:    300,
		// 2.5 GHz / 2500 cycles per byte = 1 MB/s indexing throughput,
		// against 0.2 MB/s owned generation: stable, finite builds.
		CyclesPerByte: 2500,
	}
	d.Handle = sim.AddSource(d)
	sim.RunFor(4 * 3600)
	if err := sim.RunUntilIdle(3600); err != nil {
		t.Fatal(err)
	}
	if d.Durations.Len() < 3 {
		t.Fatalf("builds completed = %d", d.Durations.Len())
	}
	if d.Running() {
		t.Error("daemon still running after drain")
	}
	// Backlogs after the first build settle near generation x (gap+build).
	for i := 1; i < d.BacklogMB.Len(); i++ {
		if d.BacklogMB.V[i] <= 0 {
			t.Errorf("build %d had empty backlog", i)
		}
	}
	if d.MaxUnsearchableMin() <= 5 {
		t.Errorf("unsearchable window = %v min, must exceed the 5-min gap", d.MaxUnsearchableMin())
	}
}

func TestIndexDaemonNeverOverlaps(t *testing.T) {
	sim, inf := syncInfra(t)
	var heavy workload.Curve
	for h := range heavy {
		heavy[h] = 3600 // 1 MB/s generation
	}
	d := &IndexDaemon{
		Inf:    inf,
		Master: "NA",
		APM:    workload.SingleMaster([]string{"NA", "EU"}, "NA"),
		Growth: GrowthModel{"NA": heavy},
		Gap:    300,
		// Throughput 1.25 MB/s barely above generation: long builds.
		CyclesPerByte: 2000,
	}
	d.Handle = sim.AddSource(d)
	maxActive := 0
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if d.Running() {
			if s.ActiveFlows() > maxActive {
				maxActive = s.ActiveFlows()
			}
		}
	}))
	sim.RunFor(2 * 3600)
	if maxActive > 1 {
		t.Errorf("INDEXBUILD overlapped: %d flows in flight", maxActive)
	}
	// Builds grow as backlog accumulates while building.
	if d.Durations.Len() >= 2 && d.Durations.V[1] <= d.Durations.V[0] {
		t.Logf("durations: %v (non-increasing is acceptable at steady state)", d.Durations.V)
	}
}

// An index build is one step of one message whose plan the operation
// stores: expanding it hands that plan back and allocates nothing.
func TestIndexBuildExpandAllocatesNothing(t *testing.T) {
	sim, inf := syncInfra(t)
	d := &IndexDaemon{Inf: inf, Master: "NA"}
	srv := topology.ServerEndpoint(inf.DC("NA").Tier("app").Pick())
	plan, err := inf.ExpandHop(topology.DaemonEndpoint(inf.DC("NA")), srv, topology.Cost{CPUCycles: 1e6, NetBytes: 1e3})
	if err != nil {
		t.Fatal(err)
	}
	op := d.op(sim, plan)
	if plans := op.Expand(0); len(plans) != 1 || len(plans[0].Stages) != len(plan.Stages) {
		t.Fatalf("index build expanded into %v, want its one plan", plans)
	}
	if n := testing.AllocsPerRun(100, func() { op.Expand(0) }); n != 0 {
		t.Errorf("an index-build expand costs %v allocations, want 0", n)
	}
}

// GlobalDailyMB sums the generated volume of all data centers over one day.
func (g GrowthModel) GlobalDailyMB() float64 {
	total := 0.0
	for _, dc := range g.DCs() {
		total += g.VolumeMB(dc, 0, 24*3600)
	}
	return total
}
