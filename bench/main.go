// Command bench is the repository's benchmark: it drives the simulator
// from outside on the five thesis workloads, times calls into exported
// functions, checks every iteration's output against a fingerprint, and
// prints wall-clock, allocation and per-layer metrics by name. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                                   every workload, end to end
//	go run ./bench -workload peak_hour -seed 7       one workload
//	go run ./bench -workload campaign -trace 1       per-layer metrics
//	go run ./bench -compare a.json b.json            two sets of runs, bounds applied
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run: peak_hour, peak_hour_sharded, validation_day, day_night, campaign, or all")
		seed    = flag.Uint64("seed", 7, "scenario seed; the only thing that changes the generated inputs")
		seconds = flag.Float64("seconds", 0, "wall budget of one workload's measurement loop; the driver passes BENCHMARK.json's run_seconds, which is also what 0 means")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans as Chrome trace-event JSON, one file per workload (<path>.<workload>.json when running all)")
		out     = flag.String("out", "", "append this run's report to the history in this file")
		cmp     = flag.Bool("compare", false, "compare two report files given as arguments: base.json new.json")
		update  = flag.Bool("update-golden", false, "regenerate bench/golden.json for the pinned seeds and exit")
	)
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare needs two report files: base.json new.json"))
		}
		if err := compare(os.Stdout, spec, flag.Arg(0), flag.Arg(1)); err != nil {
			return fatal(err)
		}
		return 0
	}
	if *update {
		if err := updateGolden(root); err != nil {
			return fatal(err)
		}
		return 0
	}

	golden, err := loadGolden()
	if err != nil {
		return fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{
		root: root, seed: *seed, sz: fullSize, trace: *trace != 0, golden: golden,
		budget: time.Duration(*seconds * float64(time.Second)),
	}
	selected := workloads()
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}

	rep := report{Stamp: newStamp(root, cfg), Workloads: map[string]workloadReport{}}
	fmt.Printf("# cores=%d gomaxprocs=%d workers=%d %s commit=%.12s seed=%d budget=%gs trace=%v\n",
		rep.Stamp.Cores, rep.Stamp.GOMAXPROCS, rep.Stamp.Workers, rep.Stamp.GoVersion,
		rep.Stamp.Commit, cfg.seed, cfg.budget.Seconds(), cfg.trace)
	ok := true
	var last workloadReport
	for _, w := range selected {
		res := runWorkload(w, cfg)
		last = res.report()
		rep.Workloads[w.name] = last
		printWorkload(os.Stdout, w.name, last)
		printSpans(os.Stdout, w.name, res.rec)
		ok = ok && last.Correct
		if *spans != "" && res.rec != nil {
			path := *spans
			if len(selected) > 1 {
				path = fmt.Sprintf("%s.%s.json", *spans, w.name)
			}
			if err := res.rec.writeChromeTrace(path); err != nil {
				return fatal(err)
			}
		}
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			return fatal(err)
		}
	}
	if !ok {
		// No result line: a run whose output check failed has no metrics
		// worth comparing.
		fmt.Fprintln(os.Stderr, "bench: output check failed")
		return 1
	}
	if len(selected) == 1 {
		fmt.Println(resultLine(last))
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", filepath.ToSlash(err.Error()))
	return 1
}
