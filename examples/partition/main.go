// Partition: the flagship chaos scenario — sever the Atlantic WAN link
// for ten minutes at peak load and watch the platform reroute and recover.
//
// Three data centers: NA owns the data (single master), EU and AS1 run
// client populations fetching documents from NA. The primary WAN paths are
// NA-EU (the Atlantic link) and NA-AS1; a backup EU-AS1 link sits idle
// until a primary fails. The fault schedule runs the classic chaos phases:
//
//	stabilize [0, 600)      healthy platform at peak load
//	inject    [600, 1200)   NA-EU blacked out; EU traffic diverts via AS1
//	recover   [1200, 1800)  link restored; the backlog drains
//
// The run emits the recovery analysis as first-class experiment output:
// exact injection/recovery times, time-to-reroute (first diverted traffic
// on the backup link), peak backlog and time-to-drain, plus the per-phase
// backlog curve for plotting. examples/chaos.json (`gdisim -doc
// examples/chaos.json`) is a variant in document form, not this run: 900 s
// with 300 s phases, a 45 Mbps backup link, cache hit rates of 0.1 and 0.05,
// app and db tiers, 32-slot client pools and the PDM catalog in place of the
// 1 MB FETCH.
package main

import (
	"fmt"
	"log"

	gdisim "repro"
)

func main() {
	log.SetFlags(0)

	e, err := atlanticPartition()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("partitioning the Atlantic for 10 minutes at peak ...")
	res, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d operations completed over %.0f simulated seconds (%d fast-forward jumps)\n",
		res.Stats.CompletedOps, res.Stats.Seconds, res.Stats.Jumps)
	if res.Faults == nil {
		log.Fatal("no fault report — the injection did not attach")
	}
	fmt.Print(res.Faults)

	// The recovery curves behind the scalar metrics: scenario phase,
	// in-flight backlog and cumulative backup-link arrivals, minute by
	// minute. fault:-prefixed series live on the report, not res.Series,
	// so result digests stay comparable with fault-free runs.
	phase := res.Faults.Series["fault:phase"]
	backlog := res.Faults.Series["fault:backlog"]
	backup := res.Faults.Series["fault:backup_arrivals"]
	phaseName := map[int]string{
		gdisim.PhaseStabilize: "stabilize",
		gdisim.PhaseInject:    "inject",
		gdisim.PhaseRecover:   "recover",
	}
	fmt.Println("\nbacklog-drain curve (1-minute resolution):")
	fmt.Printf("%8s  %-10s %10s %18s\n", "t (s)", "phase", "backlog", "backup arrivals")
	for t := 60.0; t <= res.Stats.Seconds; t += 60 {
		fmt.Printf("%8.0f  %-10s %10.0f %18.0f\n",
			t, phaseName[int(phase.At(t))], backlog.At(t), backup.At(t))
	}

	// Response-time impact on the partitioned population.
	mean, _ := res.Responses.MeanAll("DOC FETCH", "EU")
	count := res.Responses.Count("DOC FETCH", "EU")
	fmt.Printf("\nEU FETCH: %d completions, mean response %.3f s across the whole run\n", count, mean)
}

// atlanticPartition assembles the three-site platform and schedules the
// blackout. Everything is one declarative experiment: the fault rides the
// same options surface as the infrastructure and the workloads, so a sweep
// could grid over its magnitude or duration (faults.atlantic.magnitude).
func atlanticPartition() (*gdisim.Experiment, error) {
	server := gdisim.ServerSpec{
		CPU: gdisim.CPUSpec{Sockets: 2, Cores: 8, GHz: 2.5}, MemGB: 32, NICGbps: 10,
		RAID: &gdisim.RAIDSpec{Disks: 4,
			Disk: gdisim.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0}, CtrlGbps: 4, HitRate: 0},
	}
	dc := func(name string) gdisim.DCSpec {
		return gdisim.DCSpec{
			Name: name, SwitchGbps: 20,
			ClientLink: gdisim.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []gdisim.TierSpec{{
				Name: "app", Servers: 2, Server: server,
				LocalLink: gdisim.LinkSpec{Gbps: 10, LatencyMS: 0.45},
			}},
		}
	}
	spec := gdisim.InfraSpec{
		DCs: []gdisim.DCSpec{dc("NA"), dc("EU"), dc("AS1")},
		WAN: []gdisim.WANSpec{
			{From: "NA", To: "EU", Link: gdisim.LinkSpec{Gbps: 0.155, LatencyMS: 40}},
			{From: "NA", To: "AS1", Link: gdisim.LinkSpec{Gbps: 0.155, LatencyMS: 90}},
			// Idle until a primary fails; the diverted EU traffic lands here.
			// Deliberately thinner than the diverted offered load, so the
			// partition builds a real backlog that must drain after recovery.
			{From: "EU", To: "AS1", Link: gdisim.LinkSpec{Gbps: 0.010, LatencyMS: 110}, Backup: true},
		},
		Clients: map[string]gdisim.ClientSpec{
			"EU":  {Slots: 64, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
			"AS1": {Slots: 64, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
		},
	}

	// Clients fetch 1 MB documents from the master site over the WAN.
	fetch := gdisim.SeqOp("FETCH",
		gdisim.Msg{
			From: gdisim.End{Role: gdisim.RoleClient},
			To:   gdisim.End{Role: gdisim.RoleApp, Site: gdisim.SiteMaster},
			Cost: gdisim.Cost{CPUCycles: 0.2e9, NetBytes: 20e3, DiskBytes: 1e6},
		},
		gdisim.Msg{
			From: gdisim.End{Role: gdisim.RoleApp, Site: gdisim.SiteMaster},
			To:   gdisim.End{Role: gdisim.RoleClient},
			Cost: gdisim.Cost{NetBytes: 1e6},
		},
	)
	workload := func(dc string) gdisim.ExperimentWorkload {
		return gdisim.ExperimentWorkload{
			App: "DOC", DC: dc,
			Users:          gdisim.BusinessDay(100, 0, 24, 100), // constant peak
			OpsPerUserHour: 30,
			Ops:            []gdisim.Op{fetch},
		}
	}

	return gdisim.NewExperiment("atlantic-partition",
		gdisim.WithInfra(spec),
		gdisim.WithSeed(12),
		gdisim.WithDuration(1800),
		gdisim.WithAccessMatrix(gdisim.SingleMaster([]string{"NA", "EU", "AS1"}, "NA")),
		gdisim.WithWorkload(workload("EU")),
		gdisim.WithWorkload(workload("AS1")),
		gdisim.WithFault(gdisim.FaultInjection{
			Name:     "atlantic",
			Fault:    &gdisim.WANFault{From: "NA", To: "EU", Mag: 1},
			At:       600,
			Duration: 600,
		}),
	)
}
