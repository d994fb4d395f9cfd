package apps

import (
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/refdata"
	"repro/internal/topology"
)

// validationLikeInfra mirrors the Chapter 5 downscaled lab: 4-core app, db,
// fs and idx tiers at 2.5 GHz, SAN-backed db and fs, 10G LAN, 1G clients.
func validationLikeInfra(t *testing.T) (*core.Simulation, *topology.Infrastructure) {
	t.Helper()
	raid := &hardware.RAIDSpec{
		Disks: 4, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
		CtrlGbps: 4, HitRate: 0,
	}
	san := &hardware.SANSpec{
		Disks: 20, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
		FCSwitchGbps: 8, CtrlGbps: 8, FCALGbps: 8, HitRate: 0,
	}
	mkSrv := func(cores int, memGB float64, withRAID bool) topology.ServerSpec {
		s := topology.ServerSpec{
			CPU:     hardware.CPUSpec{Sockets: 1, Cores: cores, GHz: ServerGHz},
			MemGB:   memGB,
			NICGbps: 10,
		}
		if withRAID {
			s.RAID = raid
		}
		return s
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	sanLink := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5}
	spec := topology.InfraSpec{
		DCs: []topology.DCSpec{{
			Name: "NA", SwitchGbps: 20,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []topology.TierSpec{
				{Name: "app", Servers: 2, Server: mkSrv(16, 32, true), LocalLink: local},
				{Name: "db", Servers: 1, Server: mkSrv(32, 32, false), LocalLink: local, SAN: san, SANLink: &sanLink},
				{Name: "fs", Servers: 1, Server: mkSrv(16, 16, false), LocalLink: local, SAN: san, SANLink: &sanLink},
				{Name: "idx", Servers: 1, Server: mkSrv(16, 16, true), LocalLink: local},
			},
		}},
		Clients: map[string]topology.ClientSpec{
			"NA": {Slots: 64, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
		},
	}
	sim := core.NewSimulation(core.Config{Step: 0.005, Seed: 2, CollectEvery: 200})
	inf, err := topology.Build(sim, spec)
	if err != nil {
		t.Fatal(err)
	}
	return sim, inf
}

func TestCADOpsOrderAndValidity(t *testing.T) {
	ops := CADOps(2000)
	if len(ops) != len(refdata.CADOperations) {
		t.Fatalf("op count = %d", len(ops))
	}
	for i, op := range ops {
		if op.Name != refdata.CADOperations[i] {
			t.Errorf("op %d = %s, want %s", i, op.Name, refdata.CADOperations[i])
		}
		if err := op.Validate(); err != nil {
			t.Errorf("op %s invalid: %v", op.Name, err)
		}
	}
}

// TestCADTierBudgets pins the server-side CPU budgets that reproduce the
// Table 5.2 utilizations (see the package comment's derivation).
func TestCADTierBudgets(t *testing.T) {
	totals := map[cascade.Role]float64{}
	for _, op := range CADOps(2000) {
		for role, c := range op.CostToTier() {
			totals[role] += c.CPUCycles / (ServerGHz * 1e9)
		}
	}
	want := map[cascade.Role]float64{
		cascade.App: 165.28,
		cascade.DB:  113.60,
		cascade.FS:  57.60,
		cascade.Idx: 33.68,
	}
	for role, budget := range want {
		if got := totals[role]; math.Abs(got-budget) > 0.2 {
			t.Errorf("per-series %s CPU = %.2f core-s, want %.2f", role, got, budget)
		}
	}
}

// TestCADRoundTripShape checks the client<->master crossing counts that
// drive the Table 6.2 latency penalties: metadata-chatty operations cross
// many times, payload operations barely.
func TestCADRoundTripShape(t *testing.T) {
	trips := map[string]int{}
	for _, op := range CADOps(2000) {
		trips[op.Name] = op.RoundTrips()
	}
	if trips["EXPLORE"] <= trips["LOGIN"] {
		t.Errorf("EXPLORE trips (%d) should exceed LOGIN (%d)", trips["EXPLORE"], trips["LOGIN"])
	}
	if trips["SPATIAL-SEARCH"] <= trips["TEXT-SEARCH"] {
		t.Error("SPATIAL-SEARCH should be chattier than TEXT-SEARCH")
	}
	// OPEN/SAVE only cross for the token/grant; the payload stays local.
	if trips["OPEN"] > 4 || trips["SAVE"] > 6 {
		t.Errorf("payload ops too chatty: OPEN=%d SAVE=%d", trips["OPEN"], trips["SAVE"])
	}
}

func TestFileSizesGrowAcrossSeries(t *testing.T) {
	if !(FileSizeMB[refdata.Light] < FileSizeMB[refdata.Average] &&
		FileSizeMB[refdata.Average] < FileSizeMB[refdata.Heavy]) {
		t.Error("file sizes not increasing Light < Average < Heavy")
	}
	light := CADOpsBySeries(refdata.Light)
	heavy := CADOpsBySeries(refdata.Heavy)
	if light[6].TotalCost().NetBytes >= heavy[6].TotalCost().NetBytes {
		t.Error("heavy OPEN should move more bytes than light OPEN")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown series type did not panic")
		}
	}()
	CADOpsBySeries("Gigantic")
}

func TestCalibratedCADSeriesMatchesTable51(t *testing.T) {
	sim, inf := validationLikeInfra(t)
	na := inf.DC("NA")
	series, err := CalibratedCADSeries(inf, na, na, sim.Clock().Step())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range refdata.SeriesTypes {
		s := series[st]
		if len(s.Ops) != 8 {
			t.Fatalf("%s series has %d ops", st, len(s.Ops))
		}
		for i, op := range s.Ops {
			target := refdata.Table51Durations[st][refdata.CADOperations[i]]
			est, err := cascade.Estimate(op, cascade.NewBinding(inf, na, na), sim.Clock().Step())
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(est-target) / target; rel > 0.06 {
				t.Errorf("%s %s isolated estimate %.2fs vs Table 5.1 %.2fs (%.1f%%)",
					st, op.Name, est, target, rel*100)
			}
		}
	}
}

// TestCalibratedOpenSimulates runs one calibrated OPEN through the
// simulator and checks the end-to-end duration against Table 5.1.
func TestCalibratedOpenSimulates(t *testing.T) {
	sim, inf := validationLikeInfra(t)
	na := inf.DC("NA")
	series, err := CalibratedCADSeries(inf, na, na, sim.Clock().Step())
	if err != nil {
		t.Fatal(err)
	}
	open := series[refdata.Average].Ops[6]
	b := cascade.NewBinding(inf, na, na)
	run, err := cascade.Instantiate(open, b)
	if err != nil {
		t.Fatal(err)
	}
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			s.StartOp(run)
		}
	}))
	if err := sim.RunUntilIdle(200); err != nil {
		t.Fatal(err)
	}
	got, _ := sim.Responses.MeanAll(open.Name, "NA")
	want := refdata.Table51Durations[refdata.Average]["OPEN"]
	if rel := math.Abs(got-want) / want; rel > 0.08 {
		t.Errorf("simulated OPEN = %.2fs, Table 5.1 = %.2fs (%.1f%%)", got, want, rel*100)
	}
}

func TestVISLighterThanCAD(t *testing.T) {
	visOps := VISOps()
	cadOps := CADOps(FileSizeMB[refdata.Average])
	if len(visOps) != len(cadOps) {
		t.Fatalf("VIS op count = %d", len(visOps))
	}
	for i := range visOps {
		if err := visOps[i].Validate(); err != nil {
			t.Errorf("VIS %s invalid: %v", visOps[i].Name, err)
		}
		v := visOps[i].TotalCost()
		c := cadOps[i].TotalCost()
		if v.CPUCycles >= c.CPUCycles {
			t.Errorf("VIS %s CPU (%v) not lighter than CAD (%v)", visOps[i].Name, v.CPUCycles, c.CPUCycles)
		}
		if v.NetBytes > c.NetBytes {
			t.Errorf("VIS %s moves more bytes than CAD", visOps[i].Name)
		}
	}
}

func TestPDMOpsAreDBHeavy(t *testing.T) {
	for _, op := range PDMOps() {
		if err := op.Validate(); err != nil {
			t.Fatalf("PDM %s invalid: %v", op.Name, err)
		}
		per := op.CostToTier()
		if per[cascade.FS].CPUCycles != 0 || per[cascade.Idx].CPUCycles != 0 {
			t.Errorf("PDM %s touches fs/idx tiers; §6.4.2 says only app and db", op.Name)
		}
		if per[cascade.DB].CPUCycles == 0 {
			t.Errorf("PDM %s has no database work", op.Name)
		}
	}
	if n := len(PDMOps()); n != 7 {
		t.Errorf("PDM op count = %d, want 7", n)
	}
}

// An operation launched through a launcher's Scratch — binding, OpRun, the
// expansion of every step, retirement — stays within one allocation per
// step once the scratch is warm; the steps themselves expand into recycled
// storage and allocate nothing.
func TestCADExpandAllocationBudget(t *testing.T) {
	_, inf := validationLikeInfra(t)
	na := inf.DC("NA")
	var sc cascade.Scratch
	for _, op := range CADOps(25) {
		var run core.OpRun
		instance := func() {
			var err error
			if run, err = sc.Instantiate(op, cascade.NewBinding(inf, na, na)); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < run.NumSteps; s++ {
				if len(run.Expand(s)) != len(op.Steps[s]) {
					t.Fatalf("%s step %d: wrong number of plans", op.Name, s)
				}
			}
			run.Expander.Retire()
		}
		instance() // warm the scratch
		if n := testing.AllocsPerRun(20, instance); n > float64(len(op.Steps)) {
			t.Errorf("%s: %v allocs for %d steps, want at most one per step", op.Name, n, len(op.Steps))
		}
		run, err := sc.Instantiate(op, cascade.NewBinding(inf, na, na))
		if err != nil {
			t.Fatal(err)
		}
		run.Expand(0) // binds the servers
		if n := testing.AllocsPerRun(20, func() { run.Expand(1) }); n != 0 {
			t.Errorf("%s: expanding a step into recycled storage: %v allocs, want 0", op.Name, n)
		}
		run.Expander.Retire()
	}
}
