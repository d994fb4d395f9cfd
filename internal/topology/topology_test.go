package topology

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
)

// twoDCSpec builds a compact two-data-center infrastructure for tests:
// NA hosts app+db tiers, EU hosts an fs tier; clients at both sites.
func twoDCSpec() InfraSpec {
	srv := ServerSpec{
		CPU:          hardware.CPUSpec{Sockets: 2, Cores: 4, GHz: 2},
		MemGB:        32,
		CacheHitRate: 0,
		NICGbps:      1,
		RAID: &hardware.RAIDSpec{
			Disks:    2,
			Disk:     hardware.DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0},
			CtrlGbps: 4, HitRate: 0,
		},
	}
	localLink := hardware.LinkSpec{Gbps: 1, LatencyMS: 0.45}
	sanSrv := srv
	sanSrv.RAID = nil
	return InfraSpec{
		DCs: []DCSpec{
			{
				Name: "NA", SwitchGbps: 10,
				ClientLink: hardware.LinkSpec{Gbps: 1, LatencyMS: 1},
				Tiers: []TierSpec{
					{Name: "app", Servers: 2, Server: srv, LocalLink: localLink},
					{Name: "db", Servers: 1, Server: sanSrv, LocalLink: localLink,
						SAN: &hardware.SANSpec{
							Disks:        4,
							Disk:         hardware.DiskSpec{CtrlGbps: 4, MBps: 120, HitRate: 0},
							FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 0,
						},
						SANLink: &hardware.LinkSpec{Gbps: 4, LatencyMS: 0.5}},
				},
			},
			{
				Name: "EU", SwitchGbps: 10,
				ClientLink: hardware.LinkSpec{Gbps: 1, LatencyMS: 1},
				Tiers: []TierSpec{
					{Name: "fs", Servers: 1, Server: srv, LocalLink: localLink},
				},
			},
		},
		WAN: []WANSpec{
			{From: "NA", To: "EU", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 45}},
		},
		Clients: map[string]ClientSpec{
			"NA": {Slots: 4, NICGbps: 1, GHz: 2, DiskMBs: 100},
			"EU": {Slots: 4, NICGbps: 1, GHz: 2, DiskMBs: 100},
		},
	}
}

func buildTestInfra(t *testing.T) (*core.Simulation, *Infrastructure) {
	t.Helper()
	sim := core.NewSimulation(core.Config{Step: 0.001, Seed: 5})
	inf, err := Build(sim, twoDCSpec())
	if err != nil {
		t.Fatal(err)
	}
	return sim, inf
}

func TestBuildValidation(t *testing.T) {
	sim := core.NewSimulation(core.Config{})
	cases := []InfraSpec{
		{}, // no DCs
		{DCs: []DCSpec{{Name: "", SwitchGbps: 1}}},
		{DCs: []DCSpec{{Name: "A", SwitchGbps: 10,
			ClientLink: hardware.LinkSpec{Gbps: 1},
			Tiers: []TierSpec{{Name: "t", Servers: 1,
				Server:    ServerSpec{CPU: hardware.CPUSpec{Sockets: 1, Cores: 1, GHz: 1}, MemGB: 1, NICGbps: 1},
				LocalLink: hardware.LinkSpec{Gbps: 1}}}}}}, // no RAID nor SAN
	}
	for i, spec := range cases {
		if _, err := Build(sim, spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestBuildWANValidation(t *testing.T) {
	sim := core.NewSimulation(core.Config{})
	spec := twoDCSpec()
	spec.WAN = append(spec.WAN, WANSpec{From: "NA", To: "MARS",
		Link: hardware.LinkSpec{Gbps: 1}})
	if _, err := Build(sim, spec); err == nil {
		t.Error("unknown WAN endpoint accepted")
	}
	spec = twoDCSpec()
	spec.WAN[0].From = spec.WAN[0].To
	if _, err := Build(sim, spec); err == nil {
		t.Error("WAN self-loop accepted")
	}
}

func TestBuildRejectsClientsAtUnknownDC(t *testing.T) {
	spec := twoDCSpec()
	spec.Clients["MARS"] = spec.Clients["NA"]
	_, err := Build(core.NewSimulation(core.Config{}), spec)
	var unknown *UnknownClientDCError
	if !errors.As(err, &unknown) || unknown.DC != "MARS" {
		t.Fatalf("Build error = %v, want UnknownClientDCError for MARS", err)
	}
}

func TestBuildStructure(t *testing.T) {
	_, inf := buildTestInfra(t)
	na := inf.DC("NA")
	if len(na.Tier("app").Servers) != 2 {
		t.Errorf("app servers = %d", len(na.Tier("app").Servers))
	}
	if na.Tier("db").SAN == nil {
		t.Error("db tier missing SAN")
	}
	if got := na.Tier("app").TotalCores(); got != 16 {
		t.Errorf("app tier cores = %d, want 16", got)
	}
	if inf.WANLink("NA", "EU") == nil || inf.WANLink("EU", "NA") == nil {
		t.Error("WAN links missing in either direction")
	}
	if !na.HasTier("app") || na.HasTier("nope") {
		t.Error("HasTier misreports")
	}
	if names := inf.DCNames(); len(names) != 2 || names[0] != "EU" {
		t.Errorf("DCNames = %v", names)
	}
}

func TestUnknownLookupsPanic(t *testing.T) {
	_, inf := buildTestInfra(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown DC did not panic")
			}
		}()
		inf.DC("MARS")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown tier did not panic")
			}
		}()
		inf.DC("NA").Tier("nope")
	}()
}

func TestTierRoundRobinPick(t *testing.T) {
	_, inf := buildTestInfra(t)
	app := inf.DC("NA").Tier("app")
	a, b, c := app.Pick(), app.Pick(), app.Pick()
	if a == b {
		t.Error("round robin returned the same server twice in a row")
	}
	if a != c {
		t.Error("round robin did not wrap around")
	}
}

func TestPathSameAndCrossDC(t *testing.T) {
	_, inf := buildTestInfra(t)
	p, err := inf.Path("NA", "NA")
	if err != nil || len(p) != 1 {
		t.Errorf("Path(NA,NA) = %v, %v", p, err)
	}
	p, err = inf.Path("NA", "EU")
	if err != nil || len(p) != 2 || p[1] != "EU" {
		t.Errorf("Path(NA,EU) = %v, %v", p, err)
	}
}

func TestPathFailsWithoutRoute(t *testing.T) {
	_, inf := buildTestInfra(t)
	inf.FailWAN("NA", "EU")
	if _, err := inf.Path("NA", "EU"); err == nil {
		t.Error("path exists after failing the only link")
	}
	inf.RestoreWAN("NA", "EU")
	if _, err := inf.Path("NA", "EU"); err != nil {
		t.Errorf("path missing after restore: %v", err)
	}
}

// runOp drives one operation with the given plan through the simulation.
func runOp(t *testing.T, sim *core.Simulation, name string, plan core.MessagePlan) float64 {
	t.Helper()
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			s.StartOp(core.OpRun{
				Name: name, DC: "NA", NumSteps: 1,
				Expander: core.ExpandFunc(func(int) []core.MessagePlan { return []core.MessagePlan{plan} }),
			})
		}
	}))
	if err := sim.RunUntilIdle(60); err != nil {
		t.Fatal(err)
	}
	d, ok := sim.Responses.MeanAll(name, "NA")
	if !ok {
		t.Fatalf("no response for %s", name)
	}
	return d
}

func TestExpandHopLocalClientToServer(t *testing.T) {
	sim, inf := buildTestInfra(t)
	na := inf.DC("NA")
	slot := na.Clients.Next()
	srv := na.Tier("app").Pick()
	plan, err := inf.ExpandHop(ClientEndpoint(slot), ServerEndpoint(srv), Cost{
		CPUCycles: 2e9 * 0.05, // 50 ms at 2 GHz... spread over 8 cores? single task: 50ms on one core
		NetBytes:  1.25e6,     // 10 ms on 1 Gbps elements
		MemBytes:  1e9,
		DiskBytes: 10e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected stages: cNIC, clientLink, switch, serverLink, serverNIC,
	// CPU, RAID = 7.
	if len(plan.Stages) != 7 {
		t.Fatalf("stage count = %d, want 7", len(plan.Stages))
	}
	dur := runOp(t, sim, "HOP", plan)
	// Lower bound: cpu 50ms + ~4x10ms transfers + disk 10e6/(2x100MB/s).
	if dur < 0.09 || dur > 1.0 {
		t.Errorf("hop duration = %v, outside plausible band", dur)
	}
}

// AppendHop into a buffer with room allocates nothing, memory occupancy
// and storage stages included.
func TestAppendHopPresizedAllocatesNothing(t *testing.T) {
	_, inf := buildTestInfra(t)
	na := inf.DC("NA")
	from, to := ClientEndpoint(na.Clients.Next()), ServerEndpoint(na.Tier("app").Servers[0])
	cost := Cost{CPUCycles: 1e8, NetBytes: 1e5, MemBytes: 1e9, DiskBytes: 1e6}
	plan := core.MessagePlan{Stages: make([]core.Stage, 0, 16), Holds: make([]core.Hold, 0, 1)}
	n := testing.AllocsPerRun(100, func() {
		plan.Stages, plan.Holds = plan.Stages[:0], plan.Holds[:0]
		if err := inf.AppendHop(&plan, from, to, cost); err != nil || len(plan.Stages) != 7 || len(plan.Holds) != 1 {
			t.Fatalf("AppendHop = %d stages, %d holds, %v; want 7 and 1", len(plan.Stages), len(plan.Holds), err)
		}
	})
	if n != 0 {
		t.Errorf("AppendHop into a presized buffer: %v allocs, want 0", n)
	}
}

func TestExpandHopMemoryOccupancyBalanced(t *testing.T) {
	sim, inf := buildTestInfra(t)
	na := inf.DC("NA")
	srv := na.Tier("app").Servers[0]
	slot := na.Clients.Next()
	plan, err := inf.ExpandHop(ClientEndpoint(slot), ServerEndpoint(srv), Cost{
		CPUCycles: 1e8, NetBytes: 1e5, MemBytes: 4e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOp(t, sim, "MEM", plan)
	if used := srv.Mem.Used(); used != 0 {
		t.Errorf("memory leaked: %v bytes still held", used)
	}
	if srv.Mem.Peak() < 4e9 {
		t.Errorf("peak = %v, occupancy never acquired", srv.Mem.Peak())
	}
}

func TestExpandHopCrossDCUsesWAN(t *testing.T) {
	sim, inf := buildTestInfra(t)
	eu := inf.DC("EU")
	na := inf.DC("NA")
	slot := eu.Clients.Next()
	srv := na.Tier("app").Pick()
	plan, err := inf.ExpandHop(ClientEndpoint(slot), ServerEndpoint(srv), Cost{
		CPUCycles: 1e8, NetBytes: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOp(t, sim, "XDC", plan)
	wan := inf.WANLink("EU", "NA")
	if got := wan.TakeBusy(); got < 1e6*0.99 {
		t.Errorf("WAN EU->NA carried %v bytes, want ~1e6", got)
	}
	if rev := inf.WANLink("NA", "EU").TakeBusy(); rev != 0 {
		t.Errorf("reverse WAN direction carried %v bytes, want 0", rev)
	}
}

func TestExpandHopSANPath(t *testing.T) {
	sim, inf := buildTestInfra(t)
	na := inf.DC("NA")
	db := na.Tier("db").Pick()
	slot := na.Clients.Next()
	plan, err := inf.ExpandHop(ClientEndpoint(slot), ServerEndpoint(db), Cost{
		CPUCycles: 1e8, NetBytes: 1e5, DiskBytes: 50e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// SAN-backed storage adds SANLink + SAN stages.
	var hasSAN bool
	for _, st := range plan.Stages {
		if st.Queue == na.Tier("db").SAN {
			hasSAN = true
		}
	}
	if !hasSAN {
		t.Fatal("expansion missed the SAN stage")
	}
	runOp(t, sim, "SAN", plan)
}

func TestExpandHopCacheHitSkipsStorage(t *testing.T) {
	sim := core.NewSimulation(core.Config{Step: 0.001, Seed: 5})
	spec := twoDCSpec()
	spec.DCs[0].Tiers[0].Server.CacheHitRate = 1 // always hit
	inf, err := Build(sim, spec)
	if err != nil {
		t.Fatal(err)
	}
	na := inf.DC("NA")
	srv := na.Tier("app").Pick()
	plan, err := inf.ExpandHop(ClientEndpoint(na.Clients.Next()), ServerEndpoint(srv), Cost{
		CPUCycles: 1e8, NetBytes: 1e5, DiskBytes: 100e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Stages {
		if st.Queue == srv.RAID {
			t.Fatal("storage stage present despite guaranteed cache hit")
		}
	}
}

func TestExpandHopDaemonEndpoints(t *testing.T) {
	sim, inf := buildTestInfra(t)
	na, eu := inf.DC("NA"), inf.DC("EU")
	fs := eu.Tier("fs").Pick()
	// Daemon pull request: daemon at NA asks fs at EU (small message), then
	// the file flows back fs -> daemon.
	req, err := inf.ExpandHop(DaemonEndpoint(na), ServerEndpoint(fs), Cost{
		CPUCycles: 1e7, NetBytes: 1e4,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := inf.ExpandHop(ServerEndpoint(fs), DaemonEndpoint(na), Cost{
		CPUCycles: 1e7, NetBytes: 5e7,
	})
	if err != nil {
		t.Fatal(err)
	}
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			s.StartOp(core.OpRun{
				Name: "PULL", DC: "NA", NumSteps: 2,
				Expander: core.ExpandFunc(func(step int) []core.MessagePlan {
					if step == 0 {
						return []core.MessagePlan{req}
					}
					return []core.MessagePlan{resp}
				}),
			})
		}
	}))
	if err := sim.RunUntilIdle(120); err != nil {
		t.Fatal(err)
	}
	if n := sim.Responses.Count("PULL", "NA"); n != 1 {
		t.Errorf("PULL completions = %d", n)
	}
}

func TestFailoverToBackupLink(t *testing.T) {
	sim := core.NewSimulation(core.Config{Step: 0.001, Seed: 5})
	spec := twoDCSpec()
	spec.WAN = append(spec.WAN, WANSpec{From: "NA", To: "EU",
		Link: hardware.LinkSpec{Gbps: 0.045, LatencyMS: 80}, Backup: true})
	inf, err := Build(sim, spec)
	if err != nil {
		t.Fatal(err)
	}
	inf.FailWAN("NA", "EU") // fails the primary only
	p, err := inf.Path("NA", "EU")
	if err != nil {
		t.Fatalf("no path via backup: %v", err)
	}
	if len(p) != 2 {
		t.Fatalf("backup path = %v", p)
	}
	na, eu := inf.DC("NA"), inf.DC("EU")
	plan, err := inf.ExpandHop(ClientEndpoint(na.Clients.Next()),
		ServerEndpoint(eu.Tier("fs").Pick()), Cost{NetBytes: 1e6, CPUCycles: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	runOp(t, sim, "FAILOVER", plan)
	if got := inf.BackupLink("NA", "EU").TakeBusy(); got < 1e6*0.99 {
		t.Errorf("backup link carried %v bytes, want ~1e6", got)
	}
}

func TestRegisterProbes(t *testing.T) {
	sim, inf := buildTestInfra(t)
	inf.RegisterProbes(sim.Collector)
	keys := sim.Collector.Keys()
	wantKeys := []string{"cpu:NA:app", "cpu:NA:db", "cpu:EU:fs", "mem:NA:app",
		"disk:NA:db", "link:NA->EU", "link:EU->NA", "switch:NA", "clink:EU"}
	joined := strings.Join(keys, ",")
	for _, w := range wantKeys {
		found := false
		for _, k := range keys {
			if k == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("probe %q missing from %s", w, joined)
		}
	}
}

func TestProbeMeasuresCPUUtilization(t *testing.T) {
	sim, inf := buildTestInfra(t)
	inf.RegisterProbes(sim.Collector)
	na := inf.DC("NA")
	srv := na.Tier("app").Servers[0]
	// Saturate one server's 16 GHz-core... occupy 1 core for 1 second out
	// of a 16-core tier over a 1s window => util = 1/16.
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			plan, err := inf.ExpandHop(ClientEndpoint(na.Clients.Next()),
				ServerEndpoint(srv), Cost{CPUCycles: 2e9})
			if err != nil {
				t.Fatal(err)
			}
			s.StartOp(core.OpRun{Name: "BUSY", DC: "NA", NumSteps: 1,
				Expander: core.ExpandFunc(func(int) []core.MessagePlan { return []core.MessagePlan{plan} })})
		}
	}))
	sim.RunFor(2.0)
	series := sim.Collector.MustSeries("cpu:NA:app")
	// 1 core-second on a 16-core tier over a 2-second run: mean utilization
	// across snapshots should be about 1/32.
	mean := series.Mean(0, 2)
	if mean < 0.02 || mean > 0.05 {
		t.Errorf("mean CPU utilization = %v, want ~0.031", mean)
	}
}
