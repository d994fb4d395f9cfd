// Command multimaster regenerates the Chapter 7 outputs of the
// multiple-master Data Serving Platform: the access pattern matrix
// (Table 7.2), per-master pull/push volumes (Figs. 7-4/7-5), peak CPU
// utilizations (§7.4.1), background-process response times in DNA
// (Fig. 7-6), and the fidelity table's multimaster rows: the thesis'
// peaks, volumes, background effectiveness and WAN link utilization
// (Table 7.3) beside the measured values.
//
// Usage:
//
//	multimaster [-scale 0.25] [-start 0] [-end 24]
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
	log.SetPrefix("multimaster: ")
	scale := flag.Float64("scale", 0.25, "population/capacity scale factor")
	start := flag.Int("start", 0, "first simulated GMT hour")
	end := flag.Int("end", 24, "last simulated GMT hour (exclusive)")
	seed := flag.Uint64("seed", 7, "simulation seed")
	short := flag.Bool("short", false, "smoke run: one peak hour at reduced scale")
	flag.Parse()

	if *short {
		*scale, *start, *end = 0.05, 13, 14
	}
	printTable72()

	cfg := scenarios.CaseConfig{
		Seed: *seed, Scale: *scale, StartHour: *start, EndHour: *end,
	}
	cs, err := scenarios.NewMultiMaster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRunning multiple-master platform, hours [%d, %d) GMT, scale %.2f ...\n",
		*start, *end, *scale)
	cs.Run()

	hours := *end - *start
	printVolumes(cs, hours)
	printCPU(cs)
	printFig76(cs)
	scenarios.FidelityReport("\nFidelity: multiple-master platform against the thesis (bands: the scenario test's run)", cs.Fidelity()).Fprint(os.Stdout)
}

func printTable72() {
	t := &metrics.Table{
		Title:   "Table 7.2: access pattern matrix for the multiple master infrastructure (%)",
		Headers: []string{"Access\\Owner", "EU", "NA", "AUS", "SA", "AFR", "AS1"},
	}
	for _, from := range []string{"EU", "NA", "AUS", "SA", "AFR", "AS1"} {
		row := refdata.Table72APM[from]
		t.AddRow(from,
			fmt.Sprintf("%.2f", row["EU"]), fmt.Sprintf("%.2f", row["NA"]),
			fmt.Sprintf("%.2f", row["AUS"]), fmt.Sprintf("%.2f", row["SA"]),
			fmt.Sprintf("%.2f", row["AFR"]), fmt.Sprintf("%.2f", row["AS1"]))
	}
	t.Fprint(os.Stdout)
}

func printVolumes(cs *scenarios.CaseStudy, hours int) {
	for _, fig := range []struct{ id, master string }{
		{"7-4", "NA"}, {"7-5", "EU"},
	} {
		d := cs.Sync[fig.master]
		if d == nil {
			continue
		}
		fmt.Printf("\nFig. %s: data volume (MB) during Pull/Push phases to/from D%s by hour\n",
			fig.id, fig.master)
		for _, dc := range cs.Inf.DCNames() {
			if dc == fig.master {
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
		fmt.Printf("  total pushed from D%s: %.0f MB (consolidated DNA pushed the whole corpus)\n",
			fig.master, d.DailyPushMB())
	}
}

func printCPU(cs *scenarios.CaseStudy) {
	fmt.Printf("\n§7.4.1: computational performance\n")
	for _, dc := range []string{"NA", "EU", "AS1", "SA", "AFR", "AUS"} {
		for _, tier := range []string{"app", "db"} {
			pct, hr := cs.PeakCPUPct(dc, tier)
			fmt.Printf("  %-4s T%-4s peak %5.1f%% at %.1fh GMT\n", dc, tier, pct, hr)
		}
	}
}

func printFig76(cs *scenarios.CaseStudy) {
	fmt.Printf("\nFig. 7-6: background process response times in DNA\n")
	d, ib := cs.Sync["NA"], cs.Idx["NA"]
	if d.Durations.Len() > 0 {
		fmt.Printf("  SYNCHREP   cycles %3d  %s  R^max_SR %.1f min\n",
			d.Durations.Len(), metrics.Sparkline(d.Durations.V), d.MaxStalenessMin())
	}
	if ib.Durations.Len() > 0 {
		fmt.Printf("  INDEXBUILD builds %3d  %s  R^max_IB %.1f min\n",
			ib.Durations.Len(), metrics.Sparkline(ib.Durations.V), ib.MaxUnsearchableMin())
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
