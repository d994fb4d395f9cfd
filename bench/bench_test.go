package main

import (
	"bytes"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T, trace bool) runConfig {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	// No budget: one cycle of the smoke size's single history (traced: one
	// iteration of every variant), one call of every probe.
	return runConfig{root: root, seed: 7, sz: smokeSize, trace: trace, golden: golden}
}

// TestSmoke drives every workload and every probe at the smoke size,
// checks every output against golden.json, and holds the emitted workload
// and metric names (and units) equal to BENCHMARK.json in both directions.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t, false)
	spec, err := loadSpec(cfg.root)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if !slices.Equal(declared, have) {
		t.Errorf("workloads: BENCHMARK.json declares %v, the harness runs %v", declared, have)
	}
	units := func(ms []metricSpec) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			cfg.trace = trace
			res := runWorkload(w, cfg)
			rep := res.report()
			if !rep.Correct {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			want, kind := units(spec.EndToEnd), "end_to_end"
			if trace {
				want, kind = units(spec.PerLayer), "per_layer"
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !maps.Equal(got, want) {
				for name, unit := range want {
					if got[name] != unit {
						t.Errorf("%s: %s metric %s [%s] is in BENCHMARK.json, the harness emits [%s]", w.name, kind, name, unit, got[name])
					}
				}
				for name, unit := range got {
					if _, ok := want[name]; !ok {
						t.Errorf("%s: harness emits %s [%s], missing from BENCHMARK.json %s", w.name, name, unit, kind)
					}
				}
			}
			if !trace {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestHostTimesAtReferenceSpeed checks that the end-to-end host times are
// the clock's divided by the reference slices beside them: a host that runs
// everything at half speed, kernel included, reports the same numbers.
func TestHostTimesAtReferenceSpeed(t *testing.T) {
	metrics := func(slowdown float64) map[string]metric {
		res := &runResult{cfg: runConfig{ref: &refClock{mode: refSequential}}}
		for h, wall := range []float64{100, 120, 140} {
			res.samples = append(res.samples, sample{
				history: h, wallMs: wall * slowdown, setupS: 0.5 * slowdown, // both longer than refShortest
				refMs: refSequential.nominalMs * slowdown, out: outcome{ops: 1000},
			})
		}
		return res.endToEnd()
	}
	quiet, slow := metrics(1), metrics(2)
	differ := func(a, b float64) bool { return math.Abs(a-b) > 1e-9*a }
	if got := quiet["wall_ms_p50"].Value; differ(got, 120) {
		t.Errorf("wall_ms_p50 = %v on the quiet reference box, want the clock's 120", got)
	}
	for _, name := range []string{"wall_ms_p50", "ops_per_s", "setup_s"} {
		if a, b := quiet[name].Value, slow[name].Value; differ(a, b) {
			t.Errorf("%s = %v on a host at half speed, %v at full speed", name, b, a)
		}
	}
}

// TestCorruptedGoldenFails is the negative of the output check: one wrong
// digit in the pinned fingerprint must fail every iteration of the run.
func TestCorruptedGoldenFails(t *testing.T) {
	cfg := smokeConfig(t, false)
	key := goldenKey(cfg.sz, "day_night", cfg.seed, 0)
	good, ok := cfg.golden[key]
	if !ok {
		t.Fatalf("golden.json has no entry %s", key)
	}
	cfg.golden = maps.Clone(cfg.golden)
	flipped := byte('0')
	if good[0] == '0' {
		flipped = '1'
	}
	cfg.golden[key] = string(flipped) + good[1:]
	w, _ := workloadByName("day_night")
	rep := runWorkload(w, cfg).report()
	if rep.Correct || rep.Failed != rep.Attempted {
		t.Errorf("corrupted golden entry accepted: correct=%v failed=%d of %d", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestReportHistoryAndCompare checks that reports append to the file's
// history, that -compare never calls an unresolved row anything else, and
// that it refuses two sides taken with different seeds or budgets.
func TestReportHistoryAndCompare(t *testing.T) {
	spec := &benchmarkSpec{
		EndToEnd: []metricSpec{
			{Name: "wall_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	dir := t.TempDir()
	// write appends one report per wall value, seeds 1, 2, ... at the budget.
	write := func(name string, budget float64, walls, ops []float64) string {
		path := filepath.Join(dir, name)
		for i := range walls {
			rep := report{
				Stamp: stamp{Seed: uint64(i + 1), BudgetSeconds: budget},
				Workloads: map[string]workloadReport{"w": {Metrics: map[string]metric{
					"wall_ms_p50": {walls[i], "ms"}, "ops_per_s": {ops[i], "1/s"},
				}}},
			}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	flat := []float64{50, 50, 51, 49, 50}
	base := write("base.json", 20, []float64{100, 101, 99, 100, 100}, flat)
	steady := write("steady.json", 20, []float64{120, 121, 119, 120, 120}, []float64{60, 60, 61, 59, 60})
	noisy := write("noisy.json", 20, []float64{70, 130, 100, 160, 60}, flat)
	noisySlower := write("noisy-slower.json", 20, []float64{90, 170, 130, 210, 80}, flat)
	single := write("single.json", 20, []float64{100}, []float64{50})
	singleSlower := write("single-slower.json", 20, []float64{150}, []float64{50})
	otherBudget := write("other-budget.json", 10, []float64{100, 101, 99, 100, 100}, flat)

	if f, err := readReportFile(base); err != nil || len(f.History) != 5 {
		t.Fatalf("history holds %d records after 5 appends (err %v)", len(f.History), err)
	}
	verdicts := func(a, b string) map[string]string {
		var out bytes.Buffer
		if err := compare(&out, spec, a, b); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out.String(), "unchanged") {
			t.Errorf("compare said unchanged:\n%s", out.String())
		}
		got := map[string]string{}
		for _, line := range strings.Split(out.String(), "\n")[1:] {
			if f := strings.Fields(line); len(f) > 2 {
				got[f[1]] = line
			}
		}
		return got
	}
	v := verdicts(base, steady)
	if !strings.HasSuffix(v["wall_ms_p50"], "worse") {
		t.Errorf("20%% slower wall not reported worse: %s", v["wall_ms_p50"])
	}
	if !strings.HasSuffix(v["ops_per_s"], "better") {
		t.Errorf("20%% more ops/s not reported better: %s", v["ops_per_s"])
	}
	if !strings.Contains(v["wall_ms_p50"], "of 100") {
		t.Errorf("ratio printed without its base: %s", v["wall_ms_p50"])
	}
	for _, c := range []struct{ what, a, b string }{
		{"spread wider than the bound, equal medians", base, noisy},
		{"spread wider than the bound, median 30% slower", base, noisySlower},
		{"single run a side", single, single},
		{"single run a side, 50% slower", single, singleSlower},
	} {
		if v = verdicts(c.a, c.b); !strings.Contains(v["wall_ms_p50"], "unresolved") {
			t.Errorf("%s not reported unresolved: %s", c.what, v["wall_ms_p50"])
		}
	}
	for _, other := range []string{single, otherBudget} {
		if err := compare(&bytes.Buffer{}, spec, base, other); err == nil {
			t.Errorf("compare accepted %s against base.json, taken with other seeds or another budget", filepath.Base(other))
		}
	}
}

// panicky is an iteration whose simulator panics on one scenario seed.
type panicky struct {
	ctx *iterCtx
	bad uint64
}

func (p *panicky) setup() error { return nil }
func (p *panicky) timed() error {
	if p.ctx.seed == p.bad {
		panic("memory over-released")
	}
	return nil
}
func (p *panicky) harvest() (outcome, error) {
	return outcome{ops: 1, attempted: 1, digest: "d"}, nil
}
func (p *panicky) shutdown() {}

// TestPanickingHistoryReplaced checks that a history the simulator panics
// on is replaced by the next candidate, for good, and reported.
func TestPanickingHistoryReplaced(t *testing.T) {
	cfg := smokeConfig(t, true)
	bad := newHistories(cfg.seed, cfg.sz.histories).seedOf(0)
	seen := map[uint64]int{}
	w := workload{name: "panicky", newIteration: func(c *iterCtx) iteration {
		seen[c.seed]++
		return &panicky{ctx: c, bad: bad}
	}}
	res := runWorkload(w, cfg)
	rep := res.report()
	if !rep.Correct || rep.Replaced != 1 {
		t.Errorf("correct=%v replaced=%d failures=%v, want a correct run with one history replaced", rep.Correct, rep.Replaced, rep.Failures)
	}
	if seen[bad] != 1 || len(seen) != 2 {
		t.Errorf("scenario seeds tried: %v, want the panicking one once and one replacement", seen)
	}
	for _, s := range res.rec.summary() {
		if s.name == "iteration" && s.count != 1 {
			t.Errorf("%d iteration spans recorded, want 1: the panicked attempt leaves none", s.count)
		}
	}
}
