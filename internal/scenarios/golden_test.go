package scenarios

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
)

// update regenerates the golden trace snapshots in testdata/ instead of
// comparing against them, and writes nothing else:
//
//	go test ./internal/scenarios/ -run TestGolden -update
//
// Regenerate only when a change is *supposed* to alter results (a model
// fix, a new workload); loop and engine changes must reproduce the
// committed traces bit for bit — that is the point of the files.
var update = flag.Bool("update", false, "regenerate the golden trace snapshots")

// goldenResponse summarizes one response-time population: its task count
// and the mean/p90 latency of the recorded durations.
type goldenResponse struct {
	Op    string  `json:"op"`
	DC    string  `json:"dc"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P90   float64 `json:"p90"`
}

// goldenSeries summarizes one collector series: sample count, value sum
// and final sample — enough to pin any drift without committing megabytes
// of raw samples.
type goldenSeries struct {
	Key  string  `json:"key"`
	Len  int     `json:"len"`
	Sum  float64 `json:"sum"`
	Last float64 `json:"last"`
}

// goldenTrace is the committed end-of-run snapshot of one scenario.
type goldenTrace struct {
	CompletedOps uint64           `json:"completed_ops"`
	Responses    []goldenResponse `json:"responses"`
	Collector    []goldenSeries   `json:"collector"`
}

// snapshotTrace reduces a finished simulation to its golden trace, in the
// deterministic key orders the metrics package defines.
func snapshotTrace(sim *core.Simulation) goldenTrace {
	tr := goldenTrace{CompletedOps: sim.CompletedOps()}
	for _, k := range sim.Responses.Keys() {
		s := sim.Responses.Series(k.Op, k.DC)
		vals := append([]float64(nil), s.V...)
		sort.Float64s(vals)
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		if len(vals) > 0 {
			mean /= float64(len(vals))
		}
		p90 := 0.0
		if len(vals) > 0 {
			p90 = vals[len(vals)*9/10]
		}
		tr.Responses = append(tr.Responses, goldenResponse{
			Op: k.Op, DC: k.DC, Count: s.Len(), Mean: mean, P90: p90,
		})
	}
	for _, k := range sim.Collector.Keys() {
		s := sim.Collector.MustSeries(k)
		sum := 0.0
		for _, v := range s.V {
			sum += v
		}
		gs := goldenSeries{Key: k, Len: s.Len(), Sum: sum}
		if s.Len() > 0 {
			gs.Last = s.V[s.Len()-1]
		}
		tr.Collector = append(tr.Collector, gs)
	}
	return tr
}

// checkGolden compares the trace against testdata/<name>.json, or rewrites
// the file under -update. Any numeric drift fails with the first diverging
// field, so loop refactors cannot silently alter simulation results.
func checkGolden(t *testing.T, name string, tr goldenTrace) {
	t.Helper()
	got, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden trace)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var ref goldenTrace
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	t.Errorf("%s drifted from its golden trace (run with -update only if the change is meant to alter results)", name)
	if tr.CompletedOps != ref.CompletedOps {
		t.Errorf("completed ops: %d, golden %d", tr.CompletedOps, ref.CompletedOps)
	}
	for _, diff := range diffTraces(ref, tr) {
		t.Error(diff)
	}
}

// diffTraces reports the first few field-level divergences between traces.
func diffTraces(ref, got goldenTrace) []string {
	var diffs []string
	add := func(format string, args ...any) {
		if len(diffs) < 8 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	if len(ref.Responses) != len(got.Responses) {
		add("response populations: %d, golden %d", len(got.Responses), len(ref.Responses))
	}
	for i := 0; i < len(ref.Responses) && i < len(got.Responses); i++ {
		r, g := ref.Responses[i], got.Responses[i]
		if r != g {
			add("responses[%d]: %+v, golden %+v", i, g, r)
		}
	}
	if len(ref.Collector) != len(got.Collector) {
		add("collector series: %d, golden %d", len(got.Collector), len(ref.Collector))
	}
	for i := 0; i < len(ref.Collector) && i < len(got.Collector); i++ {
		r, g := ref.Collector[i], got.Collector[i]
		if r != g {
			add("collector[%d]: %+v, golden %+v", i, g, r)
		}
	}
	return diffs
}

// TestGoldenValidation pins the Chapter 5 validation scenario: a shortened
// experiment-1 run on the production loop and the sequential engine. The
// equivalence suites prove the reference loop and every engine reproduce
// these exact numbers.
func TestGoldenValidation(t *testing.T) {
	res, err := RunValidation(ValidationConfig{
		Experiment: 1, Seed: 42,
		LaunchFor: 45, RunFor: 75, SteadyStart: 30, SteadyEnd: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_validation", snapshotTrace(res.Sim))
}

// TestGoldenConsolidation pins a night-hour slice of the Chapter 6
// consolidated platform with interactive clients and both background
// daemons attached.
func TestGoldenConsolidation(t *testing.T) {
	cs, err := NewConsolidation(CaseConfig{
		Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.Run()
	cs.Sim.Shutdown()
	checkGolden(t, "golden_consolidation", snapshotTrace(cs.Sim))
}

// TestGoldenDayNight pins the day-night client scenario across the night
// floor and the morning ramp — the regime where thinning, long jumps and
// lazy stepping all engage.
func TestGoldenDayNight(t *testing.T) {
	res, err := RunDayNight(DayNightConfig{Seed: 42, Hours: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_daynight", snapshotTrace(res.Sim))
}
