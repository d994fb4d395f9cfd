package scenarios

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/examples"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// fluidDayNightConfig is the hybrid crossover scenario the fluid tests
// share: 600 peak users on the validation platform, run for the first ten
// hours of the day. The night floor (30 users, 1.7e-4 expected arrivals per
// tick) and the ramp shoulder hour [7h, 8h) (ceiling 258 users, 1.4e-3)
// stay under the 0.002 threshold, while the ramp hour [8h, 9h) has ceiling
// 600 (3.3e-3, utilization ceiling ~0.22 at the CAD station) — so the run
// is discrete for exactly eight hours and fluid from t=28800 to the end,
// one crossover.
func fluidDayNightConfig() DayNightConfig {
	return DayNightConfig{Seed: 7, Hours: 10, PeakUsers: 600, Fluid: experiment.Fluid{Above: 0.002}}
}

// fluidAnalyticOps integrates the configured curve over the fluid window
// [8h, 10h) — the exact trapezoid BuildSegments commits to.
func fluidAnalyticOps(cfg DayNightConfig) float64 {
	users := workload.BusinessDay(cfg.PeakUsers, dayNightBizStart, dayNightBizEnd,
		cfg.PeakUsers*dayNightFloorFrac)
	perUser := dayNightOpsPerUserHour / 3600.0
	ops := 0.0
	for h := 8; h < 10; h++ {
		s, e := float64(h)*3600, float64(h+1)*3600
		ops += (users.At(s) + users.At(e)) / 2 * perUser * (e - s)
	}
	return ops
}

// TestFluidDayNightCrossover pins the crossover as a calendar event: the
// mode series flips at exactly t=28800, the crossover counter records one
// transition, and the analytic ops series ends at the exact curve integral.
func TestFluidDayNightCrossover(t *testing.T) {
	res, err := RunDayNight(fluidDayNightConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Sim.Shutdown()
	requireOneAxis(t, res.Sim.Collector, "fluid:")

	mode := res.Sim.Collector.MustSeries("fluid:CAD:NA:mode")
	for _, tc := range []struct {
		t    float64
		want float64
	}{{1, 0}, {28799, 0}, {28800, 1}, {35000, 1}} {
		if got := mode.At(tc.t); got != tc.want {
			t.Errorf("mode at t=%v: %v, want %v", tc.t, got, tc.want)
		}
	}
	cross := res.Sim.Collector.MustSeries("fluid:CAD:NA:crossovers")
	if got := cross.At(27000); got != 0 {
		t.Errorf("crossovers before the ramp = %v, want 0", got)
	}
	if got := cross.At(35000); got != 1 {
		t.Errorf("crossovers after the ramp = %v, want 1", got)
	}
	// The first nonzero crossover sample must land exactly on the segment
	// boundary — a jump crossing it would smear the series.
	for i, v := range cross.V {
		if v != 0 {
			if cross.T[i] != 28800 {
				t.Errorf("first crossover sample at t=%v, want exactly 28800", cross.T[i])
			}
			break
		}
	}

	wantOps := fluidAnalyticOps(res.Config)
	ops := res.Sim.Collector.MustSeries("fluid:CAD:NA:ops")
	if got := ops.V[len(ops.V)-1]; math.Abs(got-wantOps) > 1e-6*wantOps {
		t.Errorf("analytic ops = %v, want %v", got, wantOps)
	}
	occ := res.Sim.Collector.MustSeries("fluid:CAD:NA:occupancy")
	if got := occ.At(34000); got <= 0 {
		t.Errorf("fluid occupancy = %v during the business plateau, want positive", got)
	}
	if got := occ.At(10000); got != 0 {
		t.Errorf("fluid occupancy = %v during the discrete night, want 0", got)
	}
}

// TestFluidDayNightEquivalence is the statistical-equivalence gate at the
// crossover threshold: against a fully discrete run of the same scenario
// and seed, (a) the hybrid's discrete+analytic operation count matches the
// discrete count within five standard deviations of the Poisson totals,
// and (b) the analytic response mean and p90 over the fluid window match
// the discrete run's pooled response population within 10% / 15%.
func TestFluidDayNightEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two ten-hour runs skipped in -short")
	}
	cfg := fluidDayNightConfig()
	hybrid, err := RunDayNight(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Sim.Shutdown()
	plainCfg := cfg
	plainCfg.Fluid = experiment.Fluid{}
	plain, err := RunDayNight(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Sim.Shutdown()

	ops := hybrid.Sim.Collector.MustSeries("fluid:CAD:NA:ops")
	analytic := ops.V[len(ops.V)-1]
	hybridTotal := float64(hybrid.CompletedOps) + analytic
	plainTotal := float64(plain.CompletedOps)
	if plainTotal < 500 || hybridTotal < 500 {
		t.Fatalf("pooled counts too small to test: plain %v, hybrid %v", plainTotal, hybridTotal)
	}
	// Both totals estimate the same inhomogeneous-Poisson volume; their
	// difference has variance at most the sum of the counts.
	if diff, bound := math.Abs(plainTotal-hybridTotal), 5*math.Sqrt(plainTotal+hybridTotal); diff > bound {
		t.Errorf("operation counts diverge: plain %v vs hybrid %v (analytic %v), |diff| %v > %v",
			plainTotal, hybridTotal, analytic, diff, bound)
	}

	// Pool the discrete run's response samples over the fluid window.
	var pooled []float64
	for _, k := range plain.Responses.Keys() {
		s := plain.Responses.Series(k.Op, k.DC)
		pooled = append(pooled, s.Window(8*3600, 10*3600)...)
	}
	if len(pooled) < 500 {
		t.Fatalf("only %d discrete response samples in the fluid window", len(pooled))
	}
	mean := 0.0
	for _, v := range pooled {
		mean += v
	}
	mean /= float64(len(pooled))
	sort.Float64s(pooled)
	p90 := pooled[int(0.90*float64(len(pooled)))]

	// The analytic counterparts, arrival-weighted across the fluid segments.
	respMean := hybrid.Sim.Collector.MustSeries("fluid:CAD:NA:resp_mean")
	respP90 := hybrid.Sim.Collector.MustSeries("fluid:CAD:NA:resp_p90")
	thr := hybrid.Sim.Collector.MustSeries("fluid:CAD:NA:throughput")
	var wMean, wP90, wSum float64
	for i, lam := range thr.V {
		if lam > 0 {
			wMean += lam * respMean.V[i]
			wP90 += lam * respP90.V[i]
			wSum += lam
		}
	}
	if wSum == 0 {
		t.Fatal("no fluid throughput samples")
	}
	wMean /= wSum
	wP90 /= wSum

	if rel := math.Abs(wMean-mean) / mean; rel > 0.10 {
		t.Errorf("analytic mean response %v vs discrete %v: rel error %.3f > 0.10", wMean, mean, rel)
	}
	if rel := math.Abs(wP90-p90) / p90; rel > 0.15 {
		t.Errorf("analytic p90 response %v vs discrete %v: rel error %.3f > 0.15", wP90, p90, rel)
	}
}

// TestFluidNoFluidBitIdentity pins the structural-elision contract: a
// fluid-configured experiment whose workloads.<app>.<dc>.fluid axis is
// swept to 0 (Fluid.Above = 0) is bit-identical to one that never
// configured the tier — no wrapper, no controller, no probes, no
// compile-time derivation draws — on the day-night and chaos scenarios.
// The seed axis replays the unconfigured run's seed on the sweep point.
func TestFluidNoFluidBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario pairs skipped in -short")
	}
	zeroed := func(base func() (*experiment.Experiment, error), axis string, seed uint64) string {
		t.Helper()
		res, err := experiment.NewSweep("zero-fluid", base).Vary(axis, 0).Vary("seed", float64(seed)).Run(1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Points[0].Res.Digest()
	}
	t.Run("daynight", func(t *testing.T) {
		cfg := fluidDayNightConfig()
		cfg.Hours = 2 // the night regime is enough to pin elision
		with := zeroed(func() (*experiment.Experiment, error) {
			cfg := cfg
			e, _, err := dayNightExperiment(&cfg, 1, 0)
			return e, err
		}, "workloads.CAD.NA.fluid", cfg.Seed)
		cfg.Fluid = experiment.Fluid{}
		without, err := RunDayNight(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b := without.Result.Digest(); with != b {
			t.Errorf("zero-threshold run diverged from unconfigured run:\n%s\n%s", with, b)
		}
	})
	t.Run("chaos", func(t *testing.T) {
		with := zeroed(func() (*experiment.Experiment, error) {
			return ChaosExperiment(experiment.WithFluid("PDM", "EU", experiment.Fluid{Above: 0.0005}))
		}, "workloads.PDM.EU.fluid", 42)
		e, err := ChaosExperiment()
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if without := res.Digest(); with != without {
			t.Errorf("zero-threshold chaos diverged from unconfigured run:\n%s\n%s", with, without)
		}
	})
}

// TestFluidConsolidationActive exercises the fluid tier on the
// consolidation platform — multiple client DCs whose app/db cascades
// resolve at the NA master, window-shifted curves, three workloads per DC —
// and checks that at least one workload aggregates analytically while the
// run still completes discrete work elsewhere. It runs the consolidation
// document with a fluid block on every workload.
func TestFluidConsolidationActive(t *testing.T) {
	if testing.Short() {
		t.Skip("consolidation run skipped in -short")
	}
	d, err := decodeCase(examples.Consolidation, &CaseConfig{
		Step: 0.01, Seed: 11, Scale: 0.25, StartHour: 12, EndHour: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Workloads {
		d.Workloads[i].Fluid = &config.FluidSpec{Above: 1e-3}
	}
	e, err := experiment.FromDocument(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 12:00-13:00 GMT is business time in NA and EU: their workloads offer
	// well above 1e-3 expected arrivals per tick at quarter scale.
	fluidOps := 0.0
	for _, k := range res.SeriesKeys() {
		if len(k) > 6 && k[:6] == "fluid:" && k[len(k)-4:] == ":ops" {
			s := res.Series[k]
			fluidOps += s.V[len(s.V)-1]
		}
	}
	if fluidOps <= 0 {
		t.Error("no workload aggregated analytically over the business-hour window")
	}
	if res.Stats.CompletedOps == 0 {
		t.Error("no discrete completions — the night-side DCs should still sample")
	}
}

// TestFluidChaosFallback pins the fault-window fallback: with the Atlantic
// partition effective over [120, 240), the fluid tier runs the stable
// phases analytically and falls back to discrete sampling for exactly the
// fault window — crossovers at t=120 and t=240, the same ticks the fault
// controller hits — and the whole hybrid run is bit-stable with
// dispatch.Sharded attached at every worker count.
func TestFluidChaosFallback(t *testing.T) {
	fluidOpt := experiment.WithFluid("PDM", "EU", experiment.Fluid{Above: 0.0005})
	run := func(extra ...experiment.Option) *experiment.Result {
		t.Helper()
		e, err := ChaosExperiment(append([]experiment.Option{fluidOpt}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults == nil || res.Faults.Injections[0].InjectedAt != 120 ||
			res.Faults.Injections[0].RecoveredAt != 240 {
			t.Fatal("fault transitions off their scheduled ticks")
		}
		return res
	}
	res := run()
	mode := res.Sim.Collector.MustSeries("fluid:PDM:EU:mode")
	for _, tc := range []struct {
		t    float64
		want float64
	}{{60, 1}, {119, 1}, {120, 0}, {239, 0}, {240, 1}, {359, 1}} {
		if got := mode.At(tc.t); got != tc.want {
			t.Errorf("mode at t=%v: %v, want %v (fluid outside the fault, discrete inside)", tc.t, got, tc.want)
		}
	}
	cross := res.Sim.Collector.MustSeries("fluid:PDM:EU:crossovers")
	if got := cross.V[len(cross.V)-1]; got != 2 {
		t.Errorf("final crossover count = %v, want 2 (into the fault window and out)", got)
	}
	// During the fault the workload really samples: discrete completions
	// must exist, and the analytic count must only grow outside the window.
	ops := res.Sim.Collector.MustSeries("fluid:PDM:EU:ops")
	if ops.At(239) != ops.At(121) {
		t.Errorf("analytic ops grew inside the fault window: %v -> %v", ops.At(121), ops.At(239))
	}
	if ops.At(119) <= 0 || ops.At(359) <= ops.At(240) {
		t.Error("analytic ops did not grow during the stable fluid phases")
	}
	if res.Stats.CompletedOps == 0 {
		t.Error("no discrete completions — the fault window never fell back to sampling")
	}

	ref := res.Digest()
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			n := n
			got := run(experiment.WithEngine(func() core.Engine { return dispatch.NewSharded(n) })).Digest()
			if got != ref {
				t.Errorf("hybrid digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
}

// TestRunDayNightFluid smoke-tests the web-scale entry point: ten million
// peak users, entirely analytic (even the night floor exceeds the default
// threshold 460-fold), zero discrete launches, and an ops series matching
// the exact curve integral.
func TestRunDayNightFluid(t *testing.T) {
	res, err := RunDayNightFluid(DayNightConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Sim.Shutdown()
	if res.Config.PeakUsers != 10e6 {
		t.Fatalf("default peak = %v, want 10e6", res.Config.PeakUsers)
	}
	if res.CompletedOps != 0 {
		t.Errorf("%d discrete completions, want 0 — the whole day should be fluid", res.CompletedOps)
	}
	mode := res.Sim.Collector.MustSeries("fluid:CAD:NA:mode")
	for _, at := range []float64{120, 3 * 3600, 12 * 3600, 23 * 3600} {
		if mode.At(at) != 1 {
			t.Errorf("mode at t=%v: %v, want fluid all day", at, mode.At(at))
		}
	}
	users := workload.BusinessDay(10e6, 9, 17, 0.5e6)
	perUser := 2.0 / 3600
	want := 0.0
	for h := 0; h < 24; h++ {
		s, e := float64(h)*3600, float64(h+1)*3600
		want += (users.At(s) + users.At(e)) / 2 * perUser * (e - s)
	}
	ops := res.Sim.Collector.MustSeries("fluid:CAD:NA:ops")
	if got := ops.V[len(ops.V)-1]; math.Abs(got-want) > 1e-6*want {
		t.Errorf("analytic day volume = %v, want %v", got, want)
	}
}
