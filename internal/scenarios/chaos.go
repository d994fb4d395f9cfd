package scenarios

import (
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/hardware"
	"repro/internal/topology"
	"repro/internal/workload"
)

// chaosPlatform is the miniature Atlantic-partition platform: NA owns the
// data, EU clients fetch across the primary NA-EU link, and a thin EU-AS1
// backup plus the NA-AS1 primary form the detour that carries EU traffic
// while the Atlantic is down.
func chaosPlatform() topology.InfraSpec {
	srv := topology.ServerSpec{
		CPU:     hardware.CPUSpec{Sockets: 1, Cores: 8, GHz: 2.5},
		MemGB:   32,
		NICGbps: 10,
		RAID: &hardware.RAIDSpec{
			Disks: 2, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
			CtrlGbps: 4, HitRate: 0.05,
		},
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	dc := func(name string) topology.DCSpec {
		return topology.DCSpec{
			Name: name, SwitchGbps: 20,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []topology.TierSpec{
				{Name: "app", Servers: 2, Server: srv, LocalLink: local},
				{Name: "db", Servers: 1, Server: srv, LocalLink: local},
			},
		}
	}
	return topology.InfraSpec{
		DCs: []topology.DCSpec{dc("NA"), dc("EU"), dc("AS1")},
		WAN: []topology.WANSpec{
			{From: "NA", To: "EU", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 40}},
			{From: "NA", To: "AS1", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 90}},
			{From: "EU", To: "AS1", Link: hardware.LinkSpec{Gbps: 0.045, LatencyMS: 110}, Backup: true},
		},
		Clients: map[string]topology.ClientSpec{
			"EU": {Slots: 32, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
		},
	}
}

// ChaosExperiment assembles the Atlantic-partition scenario: EU clients
// working against the NA master for 120 s, the NA-EU link severed for the
// next 120 s (traffic detours over AS1), then 120 s of recovery. The fault
// suites of several packages run it; extra options apply last.
func ChaosExperiment(extra ...experiment.Option) (*experiment.Experiment, error) {
	opts := []experiment.Option{
		experiment.WithInfra(chaosPlatform()),
		experiment.WithSeed(42),
		experiment.WithDuration(360),
		experiment.WithAccessMatrix(workload.SingleMaster([]string{"NA", "EU", "AS1"}, "NA")),
		experiment.WithWorkload(experiment.Workload{
			App: "PDM", DC: "EU",
			Users:          workload.BusinessDay(25, 0, 24, 25),
			OpsPerUserHour: 20,
		}),
		experiment.WithFault(faults.Injection{
			Name:     "atlantic",
			Fault:    &faults.WAN{From: "NA", To: "EU", Mag: 1},
			At:       120,
			Duration: 120,
		}),
	}
	return experiment.New("chaos", append(opts, extra...)...)
}
