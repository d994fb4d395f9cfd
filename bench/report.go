package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// benchmarkSpec mirrors BENCHMARK.json at the repository root: the names
// the harness must emit and the bound each end-to-end metric may worsen by.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// repoRoot finds the repository root: the nearest directory at or above the
// working directory that holds BENCHMARK.json (go run starts at the root,
// go test in bench/).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found at or above the working directory")
		}
		dir = parent
	}
}

// stamp records where and how a report was taken.
type stamp struct {
	Time          string  `json:"time"`
	Cores         int     `json:"cores"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Workers       int     `json:"workers"` // goroutines doing simulation work, at most
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Seed          uint64  `json:"seed"`
	BudgetSeconds float64 `json:"budget_seconds"`
	Trace         bool    `json:"trace"`
}

func newStamp(root string, cfg runConfig) stamp {
	return stamp{
		Time:          time.Now().UTC().Format(time.RFC3339),
		Cores:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       workers(),
		GoVersion:     runtime.Version(),
		Commit:        commit(root),
		Seed:          cfg.seed,
		BudgetSeconds: cfg.budget.Seconds(),
		Trace:         cfg.trace,
	}
}

// commit names the source revision: the build's VCS stamp when the binary
// carries one, otherwise git's answer, otherwise "unknown" (the driver's
// checkout is not a repository).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// workloadReport is one workload's entry in a report.
type workloadReport struct {
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Iterations   int               `json:"iterations"`
	TimedSeconds float64           `json:"timed_seconds"`
	RefSliceMs   float64           `json:"ref_slice_ms"`                 // median reference slice: the host's speed during the run
	Replaced     int               `json:"replaced_histories,omitempty"` // candidates the simulator panicked on
	Metrics      map[string]metric `json:"metrics"`
	Failures     []string          `json:"failures,omitempty"`
}

// report is one invocation of the benchmark.
type report struct {
	Stamp     stamp                     `json:"stamp"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// reportFile is the trajectory: every report ever appended to the file.
type reportFile struct {
	History []report `json:"history"`
}

// untraced returns the reports end-to-end metrics are taken from.
func (f *reportFile) untraced() []report {
	var out []report
	for _, rep := range f.History {
		if !rep.Stamp.Trace {
			out = append(out, rep)
		}
	}
	return out
}

func (r *runResult) report() workloadReport {
	ms := r.endToEnd()
	if r.cfg.trace {
		ms = r.perLayer()
	}
	replaced := 0
	for _, n := range r.cfg.hist.skipped {
		replaced += n
	}
	return workloadReport{
		Correct:      r.failed == 0 && len(r.samples) > 0,
		Attempted:    max(r.attempted, 1),
		Failed:       r.failed,
		Iterations:   len(r.samples),
		TimedSeconds: sum(column(r.samples, func(s sample) float64 { return s.wallMs })) / 1e3,
		RefSliceMs:   median(column(r.samples, func(s sample) float64 { return s.refMs })),
		Replaced:     replaced,
		Metrics:      ms,
		Failures:     r.failures,
	}
}

func readReportFile(path string) (*reportFile, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &reportFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendReport adds rep to the history the file carries; it never rewrites
// what is already there.
func appendReport(path string, rep report) error {
	f, err := readReportFile(path)
	if err != nil {
		return err
	}
	f.History = append(f.History, rep)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printWorkload writes one workload's metrics by name with their units.
func printWorkload(w io.Writer, name string, wr workloadReport) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	names := make([]string, 0, len(wr.Metrics))
	for k := range wr.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := wr.Metrics[k]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", name, k, m.Value, m.Unit)
	}
	fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g\tfrac\t(%d of %d; %d iterations, %.1f s timed, reference slice %.1f ms, %d histories replaced)\n",
		name, float64(wr.Failed)/float64(wr.Attempted), wr.Failed, wr.Attempted, wr.Iterations, wr.TimedSeconds, wr.RefSliceMs, wr.Replaced)
	tw.Flush()
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "%s\tFAILED: %s\n", name, f)
	}
}

// printSpans writes a traced run's spans by name: how many, their summed
// duration, and their self time.
func printSpans(w io.Writer, name string, rec *spanRecorder) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, s := range rec.summary() {
		fmt.Fprintf(tw, "%s\tspan %s\tn=%d\ttotal %.3f ms\tself %.3f ms\n", name, s.name, s.count, s.totalMs, s.selfMs)
	}
	tw.Flush()
}

// resultLine is the last line of standard output for a single-workload
// run, in the shape the driver parses.
func resultLine(wr workloadReport) string {
	raw, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, wr.Metrics})
	return string(raw)
}

// compare prints one row per workload and end-to-end metric for two report
// files, each holding the untraced runs of one commit. Both sides must have
// been taken with the same seeds and the same budget: the inputs are made
// from the seed, and a budget buys a number of cycles. Where the run-to-run
// spread (IQR over median, the wider side) exceeds the bound BENCHMARK.json
// fixes for the metric, or a side has fewer than four runs to take a spread
// from, the row is unresolved whatever the medians say — never unchanged,
// and never worse or better either. Otherwise the verdict applies the bound.
func compare(w io.Writer, spec *benchmarkSpec, basePath, newPath string) error {
	base, err := readReportFile(basePath)
	if err != nil {
		return err
	}
	change, err := readReportFile(newPath)
	if err != nil {
		return err
	}
	// inputs lists what a side's runs were given, in a form that compares.
	inputs := func(f *reportFile) string {
		var runs []string
		for _, rep := range f.untraced() {
			runs = append(runs, fmt.Sprintf("seed %d at %gs", rep.Stamp.Seed, rep.Stamp.BudgetSeconds))
		}
		sort.Strings(runs)
		return strings.Join(runs, ", ")
	}
	if a, b := inputs(base), inputs(change); a != b {
		return fmt.Errorf("the two sides were not given the same inputs:\n  %s: %s\n  %s: %s", basePath, a, newPath, b)
	}
	values := func(f *reportFile, workload, metric string) []float64 {
		var vs []float64
		for _, rep := range f.untraced() {
			if m, ok := rep.Workloads[workload].Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	iqr := func(vs []float64) float64 {
		return ratio(quantile(vs, 0.75)-quantile(vs, 0.25), math.Abs(median(vs)))
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase (median, n)\tnew (median, n)\tnew/base\tspread\tbound\tverdict")
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			a, b := values(base, wl.Name, ms.Name), values(change, wl.Name, ms.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.0f%%\tmissing\n", wl.Name, ms.Name, ms.Bound*100)
				continue
			}
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma) // positive: the change is worse
			if ms.Better == "higher" {
				worse = -worse
			}
			spread := math.NaN()
			if len(a) >= 4 && len(b) >= 4 {
				spread = math.Max(iqr(a), iqr(b))
			}
			verdict := "within bound"
			switch {
			case math.IsNaN(spread):
				verdict = "unresolved (fewer than 4 runs a side)"
			case spread > ms.Bound:
				verdict = "unresolved (spread wider than bound)"
			case worse > ms.Bound:
				verdict = "worse"
			case -worse > spread:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (n=%d)\t%.6g %s (n=%d)\t%.4f of %.6g\t%.2f%%\t%.0f%%\t%s\n",
				wl.Name, ms.Name, ma, ms.Unit, len(a), mb, ms.Unit, len(b),
				ratio(mb, ma), ma, spread*100, ms.Bound*100, verdict)
		}
	}
	return tw.Flush()
}
