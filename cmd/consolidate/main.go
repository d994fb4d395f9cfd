// Command consolidate regenerates the Chapter 6 outputs of the
// consolidated Data Serving Platform: workload curves (Figs. 6-5..6-7),
// data growth and sync volumes (Figs. 6-10/6-11), CPU utilizations
// (Figs. 6-12/6-13), background-process response times (Fig. 6-14),
// operation response times by location (Figs. 6-15..6-20), and the
// fidelity table's consolidation rows: the thesis' peaks, background
// effectiveness, WAN link utilization (Table 6.1) and latency impact
// (Table 6.2) beside the measured values.
//
// Usage:
//
//	consolidate [-scale 0.25] [-start 0] [-end 24]
//
// The default quarter-scale full-day run takes a few minutes; pass
// -scale 1 for the full-size platform.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/scenarios"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("consolidate: ")
	scale := flag.Float64("scale", 0.25, "population/capacity scale factor")
	start := flag.Int("start", 0, "first simulated GMT hour")
	end := flag.Int("end", 24, "last simulated GMT hour (exclusive)")
	seed := flag.Uint64("seed", 7, "simulation seed")
	short := flag.Bool("short", false, "smoke run: one peak hour at reduced scale")
	flag.Parse()

	if *short {
		*scale, *start, *end = 0.05, 13, 14
	}
	cfg := scenarios.CaseConfig{
		Seed: *seed, Scale: *scale, StartHour: *start, EndHour: *end,
	}
	cs, err := scenarios.NewConsolidation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Running consolidated platform, hours [%d, %d) GMT, scale %.2f ...\n",
		*start, *end, *scale)
	cs.Run()

	hours := *end - *start
	printWorkloadFigs(cs, hours)
	printGrowthAndVolumes(cs, hours)
	printCPUFigs(cs)
	printBackground(cs)
	printResponseFigs(cs)
	scenarios.FidelityReport("\nFidelity: consolidated platform against the thesis (bands: the scenario test's run)", cs.Fidelity()).Fprint(os.Stdout)
}

func printWorkloadFigs(cs *scenarios.CaseStudy, hours int) {
	for _, fig := range []struct{ id, app string }{
		{"6-5", "CAD"}, {"6-6", "VIS"}, {"6-7", "PDM"},
	} {
		fmt.Printf("\nFig. %s: %s logged-in clients by DC (hourly, from %dh GMT)\n",
			fig.id, fig.app, cs.Cfg.StartHour)
		for _, dc := range cs.Inf.DCNames() {
			s := cs.Sim.Collector.Series(fig.app + ":" + dc + ":loggedin")
			if s == nil || s.Len() == 0 {
				continue
			}
			fmt.Printf("  %-4s %s peak %.0f\n", dc, metrics.Sparkline(s.Hourly(hours)), maxOf(s.Hourly(hours)))
		}
	}
}

func printGrowthAndVolumes(cs *scenarios.CaseStudy, hours int) {
	fmt.Printf("\nFig. 6-10: data growth (MB/hour) by DC\n")
	for _, dc := range cs.Inf.DCNames() {
		if _, ok := cs.Growth[dc]; !ok {
			continue
		}
		vals := make([]float64, hours)
		for h := 0; h < hours; h++ {
			vals[h] = cs.Growth.RateMBh(dc, float64(h)*3600+1800)
		}
		fmt.Printf("  %-4s %s peak %.0f MB/h\n", dc, metrics.Sparkline(vals), maxOf(vals))
	}
	d := cs.Sync["NA"]
	if d == nil {
		return
	}
	fmt.Printf("\nFig. 6-11: data volume (MB) transferred during Pull/Push phases to/from DNA by hour\n")
	for _, dc := range cs.Inf.DCNames() {
		if dc == "NA" {
			continue
		}
		pull := d.HourlyPullMB(dc, hours)
		push := d.HourlyPushMB(dc, hours)
		if maxOf(pull) > 0 {
			fmt.Printf("  %-4s pull %s peak %.0f MB/h\n", dc, metrics.Sparkline(pull), maxOf(pull))
		}
		if maxOf(push) > 0 {
			fmt.Printf("  %-4s push %s peak %.0f MB/h\n", dc, metrics.Sparkline(push), maxOf(push))
		}
	}
	fmt.Printf("  total pushed from DNA over the window: %.0f MB (scale %.2f)\n",
		d.DailyPushMB(), cs.Cfg.Scale)
}

func printCPUFigs(cs *scenarios.CaseStudy) {
	fmt.Printf("\nFig. 6-12: CPU utilization in DNA\n")
	for _, tier := range []string{"app", "db", "idx", "fs"} {
		pct, hr := cs.PeakCPUPct("NA", tier)
		s := cs.CPUSeries("NA", tier)
		fmt.Printf("  T%-4s %s peak %.1f%% at %.1fh GMT\n",
			tier, metrics.Sparkline(s.V), pct, hr)
	}
	pct, hr := cs.PeakCPUPct("AUS", "fs")
	fmt.Printf("\nFig. 6-13: CPU utilization (Tfs) in DAUS: peak %.1f%% at %.1fh GMT\n", pct, hr)
}

func printBackground(cs *scenarios.CaseStudy) {
	d := cs.Sync["NA"]
	ib := cs.Idx["NA"]
	fmt.Printf("\nFig. 6-14: background process response times\n")
	if d.Durations.Len() > 0 {
		fmt.Printf("  SYNCHREP   cycles %3d  durations %s  R^max_SR %.1f min\n",
			d.Durations.Len(), metrics.Sparkline(d.Durations.V), d.MaxStalenessMin())
	}
	if ib.Durations.Len() > 0 {
		fmt.Printf("  INDEXBUILD builds %3d  durations %s  R^max_IB %.1f min\n",
			ib.Durations.Len(), metrics.Sparkline(ib.Durations.V), ib.MaxUnsearchableMin())
	}
}

func printResponseFigs(cs *scenarios.CaseStudy) {
	for _, fig := range []struct {
		id, dc string
		apps   []string
	}{
		{"6-15..6-17", "NA", []string{"CAD", "VIS", "PDM"}},
		{"6-18..6-20", "AUS", []string{"CAD", "VIS", "PDM"}},
	} {
		fmt.Printf("\nFigs. %s: mean response times (s) in D%s\n", fig.id, fig.dc)
		for _, app := range fig.apps {
			for _, op := range refdata.CADOperations {
				name := app + " " + op
				if m, ok := cs.Sim.Responses.MeanAll(name, fig.dc); ok {
					fmt.Printf("  %-22s %8.2f  (n=%d)\n", name, m, cs.Sim.Responses.Count(name, fig.dc))
				}
			}
		}
	}
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
