package gdisim

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// facadeSpec is a minimal public-API infrastructure.
func facadeSpec() InfraSpec {
	return InfraSpec{
		DCs: []DCSpec{{
			Name: "NA", SwitchGbps: 20,
			ClientLink: LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []TierSpec{{
				Name: "app", Servers: 2,
				Server: ServerSpec{
					CPU:     CPUSpec{Sockets: 1, Cores: 8, GHz: 2.5},
					MemGB:   32,
					NICGbps: 10,
					RAID: &RAIDSpec{
						Disks: 2, Disk: DiskSpec{CtrlGbps: 4, MBps: 150},
						CtrlGbps: 4,
					},
				},
				LocalLink: LinkSpec{Gbps: 10, LatencyMS: 0.45},
			}},
		}},
		Clients: map[string]ClientSpec{
			"NA": {Slots: 16, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
		},
	}
}

func facadeOp() Op {
	return SeqOp("PING",
		Msg{From: End{Role: RoleClient}, To: End{Role: RoleApp, Site: SiteMaster},
			Cost: Cost{CPUCycles: 2.5e8, NetBytes: 2e4}},
		Msg{From: End{Role: RoleApp, Site: SiteMaster}, To: End{Role: RoleClient},
			Cost: Cost{NetBytes: 1e5}},
	)
}

// TestPublicAPIEndToEnd drives the whole public surface: build, estimate,
// workload, run, metrics, export.
func TestPublicAPIEndToEnd(t *testing.T) {
	sim := NewSimulation(SimConfig{Step: 0.01, Seed: 5})
	defer sim.Shutdown()
	inf, err := Build(sim, facadeSpec())
	if err != nil {
		t.Fatal(err)
	}
	inf.RegisterProbes(sim.Collector)
	na := inf.DC("NA")

	op := facadeOp()
	iso, err := EstimateOp(op, NewBinding(inf, na, na), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if iso <= 0 || iso > 1 {
		t.Errorf("isolated estimate = %v", iso)
	}

	sim.AddSource(&AppWorkload{
		App: "SMOKE", DC: "NA",
		Users:          BusinessDay(120, 0, 24, 120),
		OpsPerUserHour: 30,
		Ops:            []Op{op},
		APM:            SingleMaster([]string{"NA"}, "NA"),
		Inf:            inf,
	})
	sim.RunFor(300)

	if n := sim.Responses.Count("SMOKE PING", "NA"); n < 100 {
		t.Errorf("completions = %d, want ~300", n)
	}
	util := sim.Collector.MustSeries("cpu:NA:app").Mean(0, 300)
	if util <= 0 || util > 0.5 {
		t.Errorf("app util = %v", util)
	}

	var buf bytes.Buffer
	if err := ExportSeriesCSV(&buf, CollectorSeries(sim.Collector)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cpu:NA:app") {
		t.Error("CSV export missing series")
	}
}

// TestPublicAPIEngines swaps in both parallel engines through the facade,
// on the reference loop that sweeps through them.
func TestPublicAPIEngines(t *testing.T) {
	for _, mk := range []func() Engine{
		func() Engine { return NewScatterGather(4) },
		func() Engine { return NewHDispatch(4, 0) },
	} {
		sim := NewSimulation(SimConfig{Step: 0.01, Seed: 5, Engine: mk(), LoopFlags: LoopFlags{NoFastForward: true}})
		inf, err := Build(sim, facadeSpec())
		if err != nil {
			t.Fatal(err)
		}
		na := inf.DC("NA")
		run, err := Instantiate(facadeOp(), NewBinding(inf, na, na))
		if err != nil {
			t.Fatal(err)
		}
		started := false
		sim.AddSource(SourceFunc(func(s *Simulation, now float64) {
			if !started {
				started = true
				s.StartOp(run)
			}
		}))
		if err := sim.RunUntilIdle(10); err != nil {
			t.Fatal(err)
		}
		if sim.Responses.Count("PING", "NA") != 1 {
			t.Error("operation did not complete under parallel engine")
		}
		sim.Shutdown()
	}
}

// TestScenarioDocumentRoundTrip saves and reloads a scenario document via
// the facade.
func TestScenarioDocumentRoundTrip(t *testing.T) {
	doc := &ScenarioDocument{
		Name:           "facade",
		Infrastructure: facadeSpec(),
		Workloads: []WorkloadSpec{{
			App: "CAD", DC: "NA", Users: BusinessDay(50, 13, 22, 2), OpsPerUserHour: 4,
		}},
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := doc.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workloads[0].Users.Peak() != 50 {
		t.Errorf("round-trip peak = %v", back.Workloads[0].Users.Peak())
	}
}

// TestAnalyticHelpers exercises the capacity-planning exports.
func TestAnalyticHelpers(t *testing.T) {
	p, err := ErlangC(1, 0.5)
	if err != nil || p != 0.5 {
		t.Errorf("ErlangC = %v, %v", p, err)
	}
	c, err := RequiredServers(3, 1, 0.5)
	if err != nil || c < 4 {
		t.Errorf("RequiredServers = %v, %v", c, err)
	}
	m := MMc{C: 2, Lambda: 1, Mu: 1}
	if u := m.Utilization(); u != 0.5 {
		t.Errorf("Utilization = %v", u)
	}
}

// TestValidationScenarioViaFacade runs a shortened Chapter 5 experiment
// through the public entry point.
func TestValidationScenarioViaFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run skipped in -short")
	}
	res, err := RunValidation(ValidationConfig{
		Experiment: 0, Seed: 1,
		LaunchFor: 300, RunFor: 360, SteadyStart: 120, SteadyEnd: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyMean["app"] <= 0 {
		t.Error("no app utilization measured")
	}
}
