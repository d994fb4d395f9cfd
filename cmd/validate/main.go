// Command validate regenerates the Chapter 5 validation outputs: the
// canonical operation durations (Table 5.1), the concurrent-client and CPU
// utilization figures (Figs. 5-6..5-10), and the steady-state statistics
// (Table 5.2) and RMSE accuracy assessment (Table 5.3) as rows of the
// fidelity table, beside the thesis values.
//
// Usage:
//
//	validate [-experiment 1|2|3|all] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/scenarios"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("validate: ")
	expFlag := flag.String("experiment", "all", "experiment to run: 1, 2, 3 or all")
	seed := flag.Uint64("seed", 42, "simulation seed")
	short := flag.Bool("short", false, "smoke run: one experiment over reduced windows")
	flag.Parse()

	printTable51()

	var indices []int
	if *short {
		indices = []int{0}
	} else if *expFlag == "all" {
		indices = []int{0, 1, 2}
	} else {
		n, err := strconv.Atoi(*expFlag)
		if err != nil || n < 1 || n > 3 {
			log.Fatalf("bad -experiment %q", *expFlag)
		}
		indices = []int{n - 1}
	}

	var rows []scenarios.FidelityRow
	for _, idx := range indices {
		fmt.Printf("\nRunning %s ...\n", refdata.ValidationExperiments[idx].Name)
		cfg := scenarios.ValidationConfig{
			Experiment: idx,
			Seed:       *seed,
		}
		if *short {
			cfg.LaunchFor, cfg.RunFor = 60, 90
			cfg.SteadyStart, cfg.SteadyEnd = 20, 60
		}
		res, err := scenarios.RunValidation(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, res.Fidelity()...)
		printFig56(res)
		printFigsCPU(res)
	}
	scenarios.FidelityReport("\nFidelity: validation against the thesis (bands: the scenario test's run)", rows).Fprint(os.Stdout)
	fmt.Println("\nNote: the RMSE resp rows compare loaded responses against the canonical")
	fmt.Println("Table 5.1 durations, not loaded-vs-loaded as the thesis does (see DESIGN.md,")
	fmt.Println("\"Response RMSE against Table 5.1\").")
}

// printTable51 reports Table 5.1 as encoded (the calibration targets).
func printTable51() {
	t := &metrics.Table{
		Title:   "Table 5.1: Duration of the operations by type and series (s)",
		Headers: []string{"Operation", "Light", "Average", "Heavy"},
	}
	for _, op := range refdata.CADOperations {
		t.AddRow(op,
			fmt.Sprintf("%.2f", refdata.Table51Durations[refdata.Light][op]),
			fmt.Sprintf("%.2f", refdata.Table51Durations[refdata.Average][op]),
			fmt.Sprintf("%.2f", refdata.Table51Durations[refdata.Heavy][op]))
	}
	t.AddRow("TOTAL",
		fmt.Sprintf("%.2f", refdata.SeriesTotal(refdata.Light)),
		fmt.Sprintf("%.2f", refdata.SeriesTotal(refdata.Average)),
		fmt.Sprintf("%.2f", refdata.SeriesTotal(refdata.Heavy)))
	t.Fprint(os.Stdout)
}

func printFig56(res *scenarios.ValidationResult) {
	fmt.Printf("\nFig. 5-6 (experiment %d): concurrent clients, simulated vs physical reference\n",
		res.Experiment+1)
	fmt.Printf("  simulated: %s\n", metrics.Sparkline(res.Clients.V))
	fmt.Printf("  physical:  %s\n", metrics.Sparkline(res.ReferenceClients.V))
}

func printFigsCPU(res *scenarios.ValidationResult) {
	figs := map[string]string{"app": "5-7", "db": "5-8", "fs": "5-9", "idx": "5-10"}
	for _, tier := range refdata.ValidationTiers {
		fmt.Printf("\nFig. %s (experiment %d): CPU utilization in T%s\n",
			figs[tier], res.Experiment+1, tier)
		fmt.Printf("  simulated: %s\n", metrics.Sparkline(res.CPU[tier].V))
		fmt.Printf("  physical:  %s\n", metrics.Sparkline(res.ReferenceCPU[tier].V))
	}
}
