// Command gdisim is the CLI of the GDISim reproduction. It runs the
// multicore-scalability experiments of Chapter 4 (Tables 4.1 and 4.2,
// Figs. 4-4 and 4-6), reproduces the thesis' evaluations (Chapters 5-7)
// with every table and figure beside the fidelity table, and runs
// declarative scenario documents — single experiments or concurrent
// parameter sweeps — through the experiment compiler.
//
// Usage:
//
//	gdisim -table 4.1 [-minutes 2] [-scale 0.5]   # Scatter-Gather scaling
//	gdisim -table 4.2 [-minutes 2] [-scale 0.5]   # H-Dispatch scaling
//	gdisim -scenario validation [-seed 42]        # Chapter 5, experiments 1-3
//	gdisim -scenario consolidation|multimaster \
//	       [-scale 0.25] [-hours 11-17] [-seed 3] # Chapters 6 and 7
//	gdisim -doc scenario.json [-csv out.csv]      # run one scenario document
//	gdisim -doc scenario.json \
//	       -sweep dcs.NA.app.cores=8,16,32 \
//	       -sweep workloads.PDM.NA.ops=10,20 \
//	       [-workers 8] [-csv sweep.csv]          # concurrent parameter sweep
//
// At its default flags -scenario runs the scenario's referee — the run
// the fidelity bands were set on (internal/scenarios/referee.go) — and the
// fidelity table is the check: a banded row that reads FAIL or missing
// exits 1. With -seed, -scale, -hours or -short the same table is printed
// as a comparison and the exit status is 0. A flag means one thing in every
// mode, and a flag the selected mode does not read is an error:
//
//	-scale k         platform scale; unset, the mode's own default (0.5
//	                 for the Chapter-4 tables, the referee's 0.25 for the
//	                 case studies; the validation platform is fixed)
//	-short           smoke sizes for whatever -minutes, -scale and -hours
//	                 leave unset (one shortened validation experiment);
//	                 alone, it runs -table 4.2
//	-v               print the loop statistics of a -scenario run: jumps,
//	                 skipped ticks and windows (ticks - skipped); -doc
//	                 always prints them
//	-cpuprofile f    write a CPU profile of the run to f
//	-memprofile f    write an end-of-run heap profile to f
//
// A run steps its agents on one goroutine; -workers is how a sweep uses
// more cores, one simulation per point.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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

// reads lists, per run mode, the flags it reads beyond the cross-cutting
// -v, -cpuprofile and -memprofile.
var reads = map[string][]string{
	"-doc":          {"doc", "sweep", "workers", "csv"},
	"-table":        {"table", "minutes", "scale", "agentset", "short"},
	"validation":    {"scenario", "seed", "short"},
	"consolidation": {"scenario", "seed", "scale", "hours", "short"},
	"multimaster":   {"scenario", "seed", "scale", "hours", "short"},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdisim: ")
	table := flag.String("table", "", "Chapter-4 table to regenerate: 4.1 or 4.2")
	scenario := flag.String("scenario", "", "thesis scenario to reproduce: validation, consolidation or multimaster")
	doc := flag.String("doc", "", "run a scenario document (JSON) through the experiment compiler")
	var axes sweepAxes
	flag.Var(&axes, "sweep", "sweep axis path=v1,v2,... (repeatable; requires -doc)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	csvOut := flag.String("csv", "", "write run series (or sweep rows) as CSV to this file")
	minutes := flag.Float64("minutes", 2, "simulated minutes per speedup measurement")
	scale := flag.Float64("scale", 0, "platform scale (unset: 0.5 for -table, the referee's 0.25 for the case studies)")
	agentSet := flag.Int("agentset", 0, "H-Dispatch agent-set size (0 = 64, the thesis' best)")
	seed := flag.Uint64("seed", 0, "simulation seed of a -scenario run (unset: the referee's, 42 for validation and 3 for the case studies)")
	hours := flag.String("hours", "", "GMT hour window [from, to) of a case study, as from-to (unset: the referee's 11-17)")
	short := flag.Bool("short", false, "smoke sizes for the flags left unset; alone, runs -table 4.2")
	verbose := flag.Bool("v", false, "print the loop statistics of a -scenario run: fast-forward jumps, skipped ticks and windows (ticks - skipped)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()

	if *short && *table == "" && *scenario == "" && *doc == "" {
		*table = "4.2"
	}
	mode := *scenario
	switch {
	case *doc != "":
		mode = "-doc"
	case len(axes) > 0:
		log.Fatal("-sweep requires -doc (the document is the sweep's base experiment)")
	case *table != "":
		mode = "-table"
	case *scenario == "":
		flag.Usage()
		os.Exit(2)
	}
	if reads[mode] == nil {
		log.Fatalf("unknown scenario %q", mode)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "v", "cpuprofile", "memprofile":
		default:
			if !slices.Contains(reads[mode], f.Name) {
				log.Fatalf("-%s does not apply to %s", f.Name, mode)
			}
		}
		set[f.Name] = true
	})
	if k := *scale; set["scale"] && (!(k > 0) || math.IsInf(k, 1)) {
		log.Fatalf("bad -scale %v: want a positive finite platform scale", *scale)
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

	status := 0
	switch mode {
	case "-doc":
		if len(axes) > 0 {
			runSweep(*doc, axes, *workers, *csvOut)
		} else {
			runDocument(*doc, *csvOut)
		}
	case "-table":
		if *short && !set["minutes"] {
			*minutes = 0.05
		}
		if !set["scale"] {
			*scale = 0.5
			if *short {
				*scale = 0.1
			}
		}
		switch *table {
		case "4.1":
			speedupTable("Table 4.1 and Fig. 4-4: simulation time and speedup vs threads (classic Scatter-Gather)",
				scenarios.ScatterGather, refdata.Table41ScatterGather, *minutes, *scale, *agentSet)
		case "4.2":
			speedupTable("Table 4.2 and Fig. 4-6: simulation time and speedup vs threads (H-Dispatch, Agent Set=64)",
				scenarios.HDispatch, refdata.Table42HDispatch, *minutes, *scale, *agentSet)
		default:
			log.Fatalf("unknown -table %q: want 4.1 or 4.2", *table)
		}
	case "validation":
		cfg := scenarios.ValidationReferee()
		if set["seed"] {
			cfg.Seed = *seed
		}
		label, rows := validation(cfg, *short, *verbose)
		status = reproduce(label, rows, set)
	default:
		cfg := scenarios.CaseReferee()
		if *short {
			cfg.Scale, cfg.StartHour, cfg.EndHour = 0.05, 13, 14
		}
		if set["seed"] {
			cfg.Seed = *seed
		}
		if set["scale"] {
			cfg.Scale = *scale
		}
		if set["hours"] {
			if _, err := fmt.Sscanf(*hours, "%d-%d", &cfg.StartHour, &cfg.EndHour); err != nil || cfg.EndHour <= cfg.StartHour {
				log.Fatalf("bad -hours %q: want from-to, e.g. 0-24", *hours)
			}
		}
		label, rows := caseStudy(mode, cfg, *verbose)
		status = reproduce(label, rows, set)
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		runtime.GC() // settle the heap so the profile shows retained memory
		writeFile(*memprofile, pprof.WriteHeapProfile)
	}
	os.Exit(status)
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
	fmt.Printf("  agents %d, %s\n", res.Stats.Agents, loopLine(res.Stats))
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
		t.AddRow(key, fmt.Sprintf("%d", s.Len()), fmt.Sprintf("%.4g", s.Mean(0, res.Stats.Seconds)),
			fmt.Sprintf("%.4g", s.V[s.Len()-1]))
	}
	t.Fprint(os.Stdout)
	if csvOut != "" {
		writeFile(csvOut, func(w io.Writer) error { return config.ExportSeriesCSV(w, res.Series) })
		fmt.Printf("series exported to %s\n", csvOut)
	}
}

// writeFile creates path and fills it with write; any error is fatal.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatal(err)
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
	sweep := experiment.NewSweep(path, func() (*experiment.Experiment, error) { return experiment.FromDocument(d) })
	for _, ax := range axes {
		p, vals := parseAxis(ax)
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
			row = append(row, fmt.Sprintf("%d", p.Res.Stats.CompletedOps), fmt.Sprintf("%d", p.Res.Stats.Jumps))
		} else {
			row = append(row, "error: "+p.Err.Error(), "")
		}
		t.AddRow(row...)
	}
	t.Fprint(os.Stdout)
	if csvOut != "" {
		writeFile(csvOut, func(w io.Writer) error { return res.WriteCSV(w) })
		fmt.Printf("sweep rows exported to %s\n", csvOut)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseAxis splits "path=v1,v2,..." into a Vary call; a malformed axis is
// fatal.
func parseAxis(s string) (string, []float64) {
	path, list, ok := strings.Cut(s, "=")
	if !ok || path == "" || list == "" {
		log.Fatalf("bad -sweep %q: want path=v1,v2,...", s)
	}
	var vals []float64
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			log.Fatalf("bad -sweep %q: value %q is not a number", s, f)
		}
		vals = append(vals, v)
	}
	return path, vals
}

// speedupTable measures one Chapter-4 engine's scaling and prints it as
// its table, beside the linear speedup its figure plots and the thesis'.
func speedupTable(title string, mech scenarios.Mechanism, ref []refdata.SpeedupRow, minutes, scale float64, agentSet int) {
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
	t := &metrics.Table{
		Title:   title,
		Headers: []string{"# of Threads", "Wall time (s)", "Speedup (x)", "Linear (x)", "Thesis speedup (x)"},
	}
	for i, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Threads), fmt.Sprintf("%.2f", r.Seconds),
			fmt.Sprintf("%.2f", r.Speedup), fmt.Sprintf("%d", r.Threads), fmt.Sprintf("%.2f", ref[i].Speedup))
	}
	t.Fprint(os.Stdout)
}

// loopLine reports how the window loop covered a run: its fast-forward
// jumps, the ticks they skipped, and the windows it ran — every tick not
// skipped is one window's landing.
func loopLine(st core.RunStats) string {
	return fmt.Sprintf("fast-forward jumps %d (%d ticks skipped), %d windows",
		st.Jumps, st.SkippedTicks, uint64(st.Ticks)-st.SkippedTicks)
}
