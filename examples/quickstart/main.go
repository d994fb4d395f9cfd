// Quickstart: build a one-data-center infrastructure, define a small
// two-tier web operation as a message cascade, drive it with a diurnal
// Poisson workload for one simulated hour and report utilization and
// response times.
package main

import (
	"fmt"
	"log"

	gdisim "repro"
)

func main() {
	log.SetFlags(0)
	// The default engine runs the time loop on one goroutine — the right
	// choice for a one-DC platform like this, which has nothing to
	// partition. Global topologies can run on the sharded PDES engine
	// instead (`engine: "sharded:N"` in a scenario document, or
	// `gdisim -shards N`): agents are partitioned per data center and the
	// stretches between synchronization points that carry enough work run
	// shard-parallel — everything else runs inline, so it is never slower
	// than this loop by more than a few percent — with results
	// bit-identical to it. Sharding pays when hours are dense (thousands
	// of agent advances between synchronization points), N does not exceed
	// the DC count, and real cores back the shards; see "Grain gate" under
	// "Sharded PDES engine" in DESIGN.md.
	sim := gdisim.NewSimulation(gdisim.SimConfig{Step: 0.01, Seed: 1})
	defer sim.Shutdown()

	// One data center: a 2-server application tier with local RAID storage
	// and a database tier backed by a small SAN.
	spec := gdisim.InfraSpec{
		DCs: []gdisim.DCSpec{{
			Name:       "NA",
			SwitchGbps: 20,
			ClientLink: gdisim.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []gdisim.TierSpec{
				{
					Name:    "app",
					Servers: 2,
					Server: gdisim.ServerSpec{
						CPU:     gdisim.CPUSpec{Sockets: 2, Cores: 4, GHz: 2.5},
						MemGB:   32,
						NICGbps: 10,
						RAID: &gdisim.RAIDSpec{
							Disks:    4,
							Disk:     gdisim.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
							CtrlGbps: 8, HitRate: 0.1,
						},
					},
					LocalLink: gdisim.LinkSpec{Gbps: 10, LatencyMS: 0.45},
				},
				{
					Name:    "db",
					Servers: 1,
					Server: gdisim.ServerSpec{
						CPU:     gdisim.CPUSpec{Sockets: 2, Cores: 8, GHz: 2.5},
						MemGB:   64,
						NICGbps: 10,
					},
					LocalLink: gdisim.LinkSpec{Gbps: 10, LatencyMS: 0.45},
					SAN: &gdisim.SANSpec{
						Disks:        12,
						Disk:         gdisim.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
						FCSwitchGbps: 8, CtrlGbps: 8, FCALGbps: 8, HitRate: 0.1,
					},
					SANLink: &gdisim.LinkSpec{Gbps: 8, LatencyMS: 0.5},
				},
			},
		}},
		Clients: map[string]gdisim.ClientSpec{
			"NA": {Slots: 64, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
		},
	}
	inf, err := gdisim.Build(sim, spec)
	if err != nil {
		log.Fatal(err)
	}
	inf.RegisterProbes(sim.Collector)

	// A "report" operation: the client queries the app tier, which runs a
	// database transaction and returns a 2 MB result.
	report := gdisim.SeqOp("REPORT",
		gdisim.Msg{
			From: gdisim.End{Role: gdisim.RoleClient},
			To:   gdisim.End{Role: gdisim.RoleApp, Site: gdisim.SiteMaster},
			Cost: gdisim.Cost{CPUCycles: 0.4e9, NetBytes: 20e3, MemBytes: 50e6},
		},
		gdisim.Msg{
			From: gdisim.End{Role: gdisim.RoleApp, Site: gdisim.SiteMaster},
			To:   gdisim.End{Role: gdisim.RoleDB, Site: gdisim.SiteMaster},
			Cost: gdisim.Cost{CPUCycles: 0.8e9, NetBytes: 15e3, DiskBytes: 20e6},
		},
		gdisim.Msg{
			From: gdisim.End{Role: gdisim.RoleDB, Site: gdisim.SiteMaster},
			To:   gdisim.End{Role: gdisim.RoleApp, Site: gdisim.SiteMaster},
			Cost: gdisim.Cost{CPUCycles: 0.3e9, NetBytes: 2e6},
		},
		gdisim.Msg{
			From: gdisim.End{Role: gdisim.RoleApp, Site: gdisim.SiteMaster},
			To:   gdisim.End{Role: gdisim.RoleClient},
			Cost: gdisim.Cost{CPUCycles: 0.1e9, NetBytes: 2e6},
		},
	)

	// What does one isolated execution cost?
	na := inf.DC("NA")
	isolated, err := gdisim.EstimateOp(report, gdisim.NewBinding(inf, na, na), sim.Clock().Step())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isolated REPORT duration: %.3f s\n", isolated)

	// Drive it with 300 users averaging 30 operations per hour each. At
	// this scale every operation is launched discretely — the right
	// fidelity for watching individual response times. At web scale (say
	// 10M users, thousands of expected arrivals per tick) launch the
	// declarative way instead (gdisim.NewExperiment + WithWorkload) and add
	// gdisim.WithFluid("WEB", "NA", gdisim.FluidConfig{Above: 1}): dense
	// stretches are then aggregated analytically at a per-segment cost
	// independent of the user count, falling back to discrete sampling
	// near saturation and during fault windows. The fluid tier pays off
	// when expected arrivals per tick stay well above one for real
	// stretches of the run; below that, thinning and calendar jumps
	// already make the discrete loop cheap. See DESIGN.md, "Fluid
	// workload tier".
	users := gdisim.BusinessDay(300, 0, 24, 300) // constant population
	sim.AddSource(&gdisim.AppWorkload{
		App: "WEB", DC: "NA",
		Users:          users,
		OpsPerUserHour: 30,
		Ops:            []gdisim.Op{report},
		APM:            gdisim.SingleMaster([]string{"NA"}, "NA"),
		Inf:            inf,
		GaugePrefix:    "web:NA",
	})

	fmt.Println("simulating one hour ...")
	sim.RunFor(3600)

	appUtil := sim.Collector.MustSeries("cpu:NA:app").Mean(300, 3600)
	dbUtil := sim.Collector.MustSeries("cpu:NA:db").Mean(300, 3600)
	mean, _ := sim.Responses.MeanAll("WEB REPORT", "NA")
	count := sim.Responses.Count("WEB REPORT", "NA")
	fmt.Printf("app tier CPU: %5.1f%%\n", appUtil*100)
	fmt.Printf("db tier CPU:  %5.1f%%\n", dbUtil*100)
	fmt.Printf("REPORT: %d completions, mean response %.3f s (isolated %.3f s)\n",
		count, mean, isolated)
}
