// Command gdisim is the umbrella CLI of the GDISim reproduction. It runs
// the multicore-scalability experiments of Chapter 4 (Tables 4.1 and 4.2,
// Figs. 4-4 and 4-6), dispatches to the evaluation scenarios, and runs
// declarative scenario documents — single experiments or concurrent
// parameter sweeps — through the experiment compiler.
//
// Usage:
//
//	gdisim -table 4.1 [-minutes 2] [-scale 0.5]   # Scatter-Gather scaling
//	gdisim -table 4.2 [-minutes 2] [-scale 0.5]   # H-Dispatch scaling
//	gdisim -scenario validation|consolidation|multimaster
//	gdisim -doc scenario.json [-csv out.csv]      # run one scenario document
//	gdisim -doc scenario.json \
//	       -sweep dcs.NA.app.cores=8,16,32 \
//	       -sweep workloads.PDM.NA.ops=10,20 \
//	       [-workers 8] [-csv sweep.csv]          # concurrent parameter sweep
//
// The cross-cutting flags compose with the run modes above:
//
//	-v               print the fast-forward statistics of a -scenario run
//	                 (jumps and skipped ticks; -doc always prints them)
//	-cpuprofile f    write a CPU profile of the run to f
//	-memprofile f    write an end-of-run heap profile to f
//
// A run steps its agents on one goroutine; -workers is how a sweep uses
// more cores, one simulation per point.
//
// For the full per-chapter reports use cmd/validate, cmd/consolidate and
// cmd/multimaster.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/scenarios"
)

// sweepAxes collects repeated -sweep flags ("path=v1,v2,...").
type sweepAxes []string

func (a *sweepAxes) String() string     { return strings.Join(*a, "; ") }
func (a *sweepAxes) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdisim: ")
	table := flag.String("table", "", "table to regenerate: 4.1 or 4.2")
	scenario := flag.String("scenario", "", "scenario smoke-run: validation, consolidation or multimaster")
	doc := flag.String("doc", "", "run a scenario document (JSON) through the experiment compiler")
	var axes sweepAxes
	flag.Var(&axes, "sweep", "sweep axis path=v1,v2,... (repeatable; requires -doc)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	csvOut := flag.String("csv", "", "write run series (or sweep rows) as CSV to this file")
	minutes := flag.Float64("minutes", 2, "simulated minutes per speedup measurement")
	scale := flag.Float64("scale", 0.5, "platform scale for speedup measurement")
	agentSet := flag.Int("agentset", 0, "H-Dispatch agent-set size (0 = 64, the thesis' best)")
	short := flag.Bool("short", false, "smoke run: tiny H-Dispatch speedup measurement")
	verbose := flag.Bool("v", false, "print the fast-forward statistics of a -scenario run: jumps and skipped ticks")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()

	if *short && *table == "" && *scenario == "" && *doc == "" {
		*table = "4.2"
	}
	if *short {
		*minutes, *scale = 0.05, 0.1
	}

	// Profiles bracket the selected run mode. Error paths exit through
	// log.Fatal and drop the profile — a failed run's profile is noise.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}

	switch {
	case *doc != "" && len(axes) > 0:
		runSweep(*doc, axes, *workers, *csvOut)
	case *doc != "":
		runDocument(*doc, *csvOut)
	case len(axes) > 0:
		log.Fatal("-sweep requires -doc (the document is the sweep's base experiment)")
	case *table == "4.1":
		speedupTable(scenarios.ScatterGather, refdata.Table41ScatterGather, *minutes, *scale, *agentSet)
	case *table == "4.2":
		speedupTable(scenarios.HDispatch, refdata.Table42HDispatch, *minutes, *scale, *agentSet)
	case *scenario != "":
		smoke(*scenario, *verbose)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// runDocument compiles and runs one scenario document, printing the
// uniform result summary and optionally exporting every series as CSV.
func runDocument(path, csvOut string) {
	e, err := experiment.LoadDocument(path)
	if err != nil {
		log.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("experiment %s: %d operations completed over %.0f simulated seconds\n",
		res.Name, res.Stats.CompletedOps, res.Stats.Seconds)
	fmt.Printf("  agents %d, fast-forward jumps %d (%d ticks skipped)\n",
		res.Stats.Agents, res.Stats.Jumps, res.Stats.SkippedTicks)
	if res.Faults != nil {
		fmt.Print(res.Faults)
	}
	t := &metrics.Table{
		Title:   "Collector series",
		Headers: []string{"series", "samples", "mean", "last"},
	}
	for _, key := range res.SeriesKeys() {
		s := res.Series[key]
		if s.Len() == 0 {
			continue
		}
		t.AddRow(key, fmt.Sprintf("%d", s.Len()),
			fmt.Sprintf("%.4g", s.Mean(0, res.Stats.Seconds)),
			fmt.Sprintf("%.4g", s.V[s.Len()-1]))
	}
	t.Fprint(os.Stdout)
	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := config.ExportSeriesCSV(f, res.Series); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("series exported to %s\n", csvOut)
	}
}

// runSweep expands the -sweep axes over the document experiment and runs
// the grid on the worker pool.
func runSweep(path string, axes sweepAxes, workers int, csvOut string) {
	// Parse the document once: the base factory runs per grid point (and
	// per validation probe), and re-reading the file each time would let a
	// mid-run edit silently change later points' scenario.
	d, err := config.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	base := func() (*experiment.Experiment, error) {
		return experiment.FromDocument(d)
	}
	sweep := experiment.NewSweep(path, base)
	for _, ax := range axes {
		p, vals, err := parseAxis(ax)
		if err != nil {
			log.Fatal(err)
		}
		sweep.Vary(p, vals...)
	}
	fmt.Printf("sweep: %d points x %s\n", sweep.Size(), strings.Join(axes, " x "))
	res, err := sweep.Run(workers)
	if res == nil {
		// Grid validation failed before any point ran.
		log.Fatal(err)
	}
	// Point failures must not discard the completed points: report the
	// table (failed rows carry the error) and still export the CSV, then
	// exit non-zero.
	t := &metrics.Table{
		Title:   fmt.Sprintf("Sweep over %s (%d workers)", path, res.Workers),
		Headers: append(append([]string{"point", "seed"}, res.Axes...), "completed ops", "jumps"),
	}
	for _, p := range res.Points {
		row := []string{fmt.Sprintf("%d", p.Index), fmt.Sprintf("%d", p.Seed)}
		for _, v := range p.Values {
			row = append(row, v.Label)
		}
		for len(row) < 2+len(res.Axes) {
			row = append(row, "") // failed before all axes were applied
		}
		if p.Res != nil {
			row = append(row,
				fmt.Sprintf("%d", p.Res.Stats.CompletedOps),
				fmt.Sprintf("%d", p.Res.Stats.Jumps))
		} else {
			row = append(row, "error: "+p.Err.Error(), "")
		}
		t.AddRow(row...)
	}
	t.Fprint(os.Stdout)
	if csvOut != "" {
		f, cerr := os.Create(csvOut)
		if cerr != nil {
			log.Fatal(cerr)
		}
		if cerr := res.WriteCSV(f); cerr != nil {
			log.Fatal(cerr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Printf("sweep rows exported to %s\n", csvOut)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseAxis splits "path=v1,v2,..." into a Vary call.
func parseAxis(s string) (string, []float64, error) {
	path, list, ok := strings.Cut(s, "=")
	if !ok || path == "" || list == "" {
		return "", nil, fmt.Errorf("bad -sweep %q: want path=v1,v2,...", s)
	}
	var vals []float64
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad -sweep %q: value %q is not a number", s, f)
		}
		vals = append(vals, v)
	}
	return path, vals, nil
}

func speedupTable(mech scenarios.Mechanism, ref []refdata.SpeedupRow, minutes, scale float64, agentSet int) {
	threads := make([]int, 0, len(ref))
	for _, r := range ref {
		threads = append(threads, r.Threads)
	}
	fmt.Printf("Measuring %s scaling: %v threads, %.1f simulated minutes at scale %.2f ...\n",
		mech, threads, minutes, scale)
	rows, err := scenarios.MeasureEngineSpeedup(mech, threads, minutes, scale, agentSet)
	if err != nil {
		log.Fatal(err)
	}
	title := "Table 4.1: simulation time and speedup vs threads (classic Scatter-Gather)"
	if mech == scenarios.HDispatch {
		title = "Table 4.2: simulation time and speedup vs threads (H-Dispatch, Agent Set=64)"
	}
	t := &metrics.Table{
		Title:   title,
		Headers: []string{"# of Threads", "Wall time (s)", "Speedup (x)", "Thesis speedup (x)"},
	}
	for i, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.2f", r.Seconds),
			fmt.Sprintf("%.2f", r.Speedup),
			fmt.Sprintf("%.2f", ref[i].Speedup))
	}
	t.Fprint(os.Stdout)
	fmt.Println("\nFig. 4-4/4-6 series (speedup vs linear):")
	for i, r := range rows {
		fmt.Printf("  %2d threads: measured %.2fx, linear %dx, thesis %.2fx\n",
			r.Threads, r.Speedup, r.Threads, ref[i].Speedup)
	}
}

func smoke(name string, verbose bool) {
	var sim *core.Simulation
	switch name {
	case "validation":
		res, err := scenarios.RunValidation(scenarios.ValidationConfig{Experiment: 1, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("validation experiment 2: app CPU steady mean %.1f%% (physical %.1f%%)\n",
			res.SteadyMean["app"], refdata.Table52Physical[1]["app"].Mean)
		sim = res.Sim
	case "consolidation":
		cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
			Scale: 0.25, StartHour: 12, EndHour: 16, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		cs.Run()
		pct, hr := cs.PeakCPUPct("NA", "app")
		fmt.Printf("consolidation peak window: Tapp DNA %.1f%% at %.1fh GMT (paper ~73%%)\n", pct, hr)
		sim = cs.Sim
	case "multimaster":
		cs, err := scenarios.NewMultiMaster(scenarios.CaseConfig{
			Scale: 0.25, StartHour: 12, EndHour: 16, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		cs.Run()
		pct, hr := cs.PeakCPUPct("NA", "app")
		fmt.Printf("multimaster peak window: Tapp DNA %.1f%% at %.1fh GMT (paper ~78%%)\n", pct, hr)
		sim = cs.Sim
	default:
		log.Fatalf("unknown scenario %q", name)
	}
	if verbose {
		st := sim.Stats()
		fmt.Printf("  fast-forward jumps %d (%d ticks skipped)\n", st.Jumps, st.SkippedTicks)
	}
}
