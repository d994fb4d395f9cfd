package main

import (
	"fmt"
	"log"
	"os"
	"slices"

	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/scenarios"
)

// reproduce prints the fidelity table of a -scenario run. On the referee
// run (none of -seed, -scale, -hours or -short set) the table is the
// check, and the exit status is 1 if a banded row read FAIL or missing;
// any override makes it a comparison against the referee's bands.
func reproduce(label string, rows []scenarios.FidelityRow, set map[string]bool) int {
	referee := !set["seed"] && !set["scale"] && !set["hours"] && !set["short"]
	kind := "comparison: the bands are the referee run's tolerances"
	if referee {
		kind = "referee run: a banded row out of band fails"
	}
	scenarios.FidelityReport(fmt.Sprintf("\nFidelity: %s (%s)", label, kind), rows).Fprint(os.Stdout)
	if referee && slices.ContainsFunc(rows, scenarios.FidelityRow.Failed) {
		log.Print("a banded fidelity row reads FAIL or missing on the referee run")
		return 1
	}
	return 0
}

// validation runs the Chapter 5 experiments at the referee's seed — all
// three, or with short the first over reduced windows — and prints Table
// 5.1 and Figs. 5-6..5-10. It returns the fidelity table's label and rows.
func validation(ref scenarios.ValidationConfig, short, verbose bool) (string, []scenarios.FidelityRow) {
	printTable51()
	exps := []int{0, 1, 2}
	label := fmt.Sprintf("validation experiments 1-3, seed %d", ref.Seed)
	if short {
		exps = exps[:1]
		label = fmt.Sprintf("validation experiment 1 over reduced windows, seed %d", ref.Seed)
	}
	var rows []scenarios.FidelityRow
	for _, i := range exps {
		cfg := ref
		cfg.Experiment = i
		if short {
			cfg.LaunchFor, cfg.RunFor, cfg.SteadyStart, cfg.SteadyEnd = 60, 90, 20, 60
		}
		fmt.Printf("\nRunning %s ...\n", refdata.ValidationExperiments[i].Name)
		res, err := scenarios.RunValidation(cfg)
		if err != nil {
			log.Fatal(err)
		}
		printValidationFigs(res)
		if verbose {
			fmt.Printf("  %s\n", loopLine(res.Sim.Stats()))
		}
		rows = append(rows, res.Fidelity()...)
	}
	fmt.Println("\nNote: the RMSE resp rows compare loaded responses against the canonical Table 5.1\n" +
		"durations, not loaded-vs-loaded as the thesis does (see DESIGN.md, \"Response RMSE against Table 5.1\").")
	return label, rows
}

// caseStudy runs the Chapter 6 (consolidation) or Chapter 7 (multimaster)
// platform and prints its figures. It returns the fidelity table's label
// and rows.
func caseStudy(name string, cfg scenarios.CaseConfig, verbose bool) (string, []scenarios.FidelityRow) {
	build := scenarios.NewConsolidation
	if name == "multimaster" {
		build = scenarios.NewMultiMaster
		printTable72()
	}
	cs, err := build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRunning %s ...\n", cs.Label())
	cs.Run()
	hours := cs.Cfg.EndHour - cs.Cfg.StartHour
	if name == "multimaster" {
		printVolumes(cs, "7-4", "NA", hours)
		printVolumes(cs, "7-5", "EU", hours)
		printPeaks(cs)
		printBackground(cs, "7-6")
	} else {
		printWorkloadFigs(cs, hours)
		printGrowth(cs, hours)
		printVolumes(cs, "6-11", "NA", hours)
		printCPUFigs(cs)
		printBackground(cs, "6-14")
		printResponseFigs(cs)
	}
	if verbose {
		fmt.Printf("  %s\n", loopLine(cs.Sim.Stats()))
	}
	return cs.Label(), cs.Fidelity()
}

// printTable51 reports Table 5.1 as encoded (the calibration targets).
func printTable51() {
	t := &metrics.Table{
		Title:   "Table 5.1: Duration of the operations by type and series (s)",
		Headers: []string{"Operation", "Light", "Average", "Heavy"},
	}
	row := func(name string, dur func(refdata.SeriesType) float64) {
		t.AddRow(name, fmt.Sprintf("%.2f", dur(refdata.Light)),
			fmt.Sprintf("%.2f", dur(refdata.Average)), fmt.Sprintf("%.2f", dur(refdata.Heavy)))
	}
	for _, op := range refdata.CADOperations {
		row(op, func(s refdata.SeriesType) float64 { return refdata.Table51Durations[s][op] })
	}
	row("TOTAL", refdata.SeriesTotal)
	t.Fprint(os.Stdout)
}

// printValidationFigs prints Figs. 5-6..5-10 of one experiment: simulated
// clients and tier CPU beside the synthesized physical reference.
func printValidationFigs(res *scenarios.ValidationResult) {
	fig := func(title string, sim, phys *metrics.Series) {
		fmt.Printf("\nFig. %s\n  simulated: %s\n  physical:  %s\n", title, metrics.Sparkline(sim.V), metrics.Sparkline(phys.V))
	}
	n := res.Experiment + 1
	fig(fmt.Sprintf("5-6 (experiment %d): concurrent clients, simulated vs physical reference", n),
		res.Clients, res.ReferenceClients)
	for i, tier := range refdata.ValidationTiers { // app, db, fs, idx: Figs. 5-7..5-10
		fig(fmt.Sprintf("5-%d (experiment %d): CPU utilization in T%s", 7+i, n, tier), res.CPU[tier], res.ReferenceCPU[tier])
	}
}

func printTable72() {
	dcs := []string{"EU", "NA", "AUS", "SA", "AFR", "AS1"}
	t := &metrics.Table{
		Title:   "Table 7.2: access pattern matrix for the multiple master infrastructure (%)",
		Headers: append([]string{"Access\\Owner"}, dcs...),
	}
	for _, from := range dcs {
		row := []string{from}
		for _, to := range dcs {
			row = append(row, fmt.Sprintf("%.2f", refdata.Table72APM[from][to]))
		}
		t.AddRow(row...)
	}
	t.Fprint(os.Stdout)
}

func printWorkloadFigs(cs *scenarios.CaseStudy, hours int) {
	for _, fig := range []struct{ id, app string }{{"6-5", "CAD"}, {"6-6", "VIS"}, {"6-7", "PDM"}} {
		fmt.Printf("\nFig. %s: %s logged-in clients by DC (hourly, from %dh GMT)\n",
			fig.id, fig.app, cs.Cfg.StartHour)
		for _, dc := range cs.Inf.DCNames() {
			s := cs.Sim.Collector.Series(fig.app + ":" + dc + ":loggedin")
			if s == nil || s.Len() == 0 {
				continue
			}
			h := s.Hourly(hours)
			fmt.Printf("  %-4s %s peak %.0f\n", dc, metrics.Sparkline(h), slices.Max(h))
		}
	}
}

func printGrowth(cs *scenarios.CaseStudy, hours int) {
	fmt.Printf("\nFig. 6-10: data growth (MB/hour) by DC\n")
	for _, dc := range cs.Inf.DCNames() {
		if _, ok := cs.Growth[dc]; !ok {
			continue
		}
		vals := make([]float64, hours)
		for h := range vals {
			vals[h] = cs.Growth.RateMBh(dc, float64(h)*3600+1800)
		}
		fmt.Printf("  %-4s %s peak %.0f MB/h\n", dc, metrics.Sparkline(vals), slices.Max(vals))
	}
}

// printVolumes prints a master's hourly SYNCHREP pull and push volumes per
// data center (Figs. 6-11, 7-4 and 7-5).
func printVolumes(cs *scenarios.CaseStudy, fig, master string, hours int) {
	d := cs.Sync[master]
	if d == nil {
		return
	}
	fmt.Printf("\nFig. %s: data volume (MB) during Pull/Push phases to/from D%s by hour\n", fig, master)
	for _, dc := range cs.Inf.DCNames() {
		if dc == master {
			continue
		}
		for _, phase := range []struct {
			name string
			mb   []float64
		}{{"pull", d.HourlyPullMB(dc, hours)}, {"push", d.HourlyPushMB(dc, hours)}} {
			if peak := slices.Max(phase.mb); peak > 0 {
				fmt.Printf("  %-4s %s %s peak %.0f MB/h\n", dc, phase.name, metrics.Sparkline(phase.mb), peak)
			}
		}
	}
	fmt.Printf("  total pushed from D%s over the window: %.0f MB (scale %g)\n",
		master, d.DailyPushMB(), cs.Cfg.Scale)
}

func printCPUFigs(cs *scenarios.CaseStudy) {
	fmt.Printf("\nFig. 6-12: CPU utilization in DNA\n")
	for _, tier := range []string{"app", "db", "idx", "fs"} {
		pct, hr := cs.PeakCPUPct("NA", tier)
		fmt.Printf("  T%-4s %s peak %.1f%% at %.1fh GMT\n",
			tier, metrics.Sparkline(cs.CPUSeries("NA", tier).V), pct, hr)
	}
	pct, hr := cs.PeakCPUPct("AUS", "fs")
	fmt.Printf("\nFig. 6-13: CPU utilization (Tfs) in DAUS: peak %.1f%% at %.1fh GMT\n", pct, hr)
}

// printPeaks prints the §7.4.1 peak app and db utilization of every master.
func printPeaks(cs *scenarios.CaseStudy) {
	fmt.Printf("\n§7.4.1: computational performance\n")
	for _, dc := range []string{"NA", "EU", "AS1", "SA", "AFR", "AUS"} {
		for _, tier := range []string{"app", "db"} {
			pct, hr := cs.PeakCPUPct(dc, tier)
			fmt.Printf("  %-4s T%-4s peak %5.1f%% at %.1fh GMT\n", dc, tier, pct, hr)
		}
	}
}

// printBackground prints DNA's SYNCHREP and INDEXBUILD response times
// (Figs. 6-14 and 7-6).
func printBackground(cs *scenarios.CaseStudy, fig string) {
	fmt.Printf("\nFig. %s: background process response times in DNA\n", fig)
	if d := cs.Sync["NA"]; d.Durations.Len() > 0 {
		fmt.Printf("  SYNCHREP   cycles %3d  durations %s  R^max_SR %.1f min\n",
			d.Durations.Len(), metrics.Sparkline(d.Durations.V), d.MaxStalenessMin())
	}
	if ib := cs.Idx["NA"]; ib.Durations.Len() > 0 {
		fmt.Printf("  INDEXBUILD builds %3d  durations %s  R^max_IB %.1f min\n",
			ib.Durations.Len(), metrics.Sparkline(ib.Durations.V), ib.MaxUnsearchableMin())
	}
}

func printResponseFigs(cs *scenarios.CaseStudy) {
	for _, fig := range []struct{ id, dc string }{{"6-15..6-17", "NA"}, {"6-18..6-20", "AUS"}} {
		fmt.Printf("\nFigs. %s: mean response times (s) in D%s\n", fig.id, fig.dc)
		for _, app := range []string{"CAD", "VIS", "PDM"} {
			for _, op := range refdata.CADOperations {
				name := app + " " + op
				if m, ok := cs.Sim.Responses.MeanAll(name, fig.dc); ok {
					fmt.Printf("  %-22s %8.2f  (n=%d)\n", name, m, cs.Sim.Responses.Count(name, fig.dc))
				}
			}
		}
	}
}
