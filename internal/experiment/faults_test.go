package experiment

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faults"
	"repro/internal/topology"
)

// brownout declares a DC brownout injection over the single-DC test
// fixture: effective when magnitude and duration are positive.
func brownout(mag, duration float64) Injection {
	return Injection{
		Name:     "na",
		Fault:    &faults.DC{DC: "NA", Mag: mag},
		At:       100,
		Duration: duration,
	}
}

// Injection aliases the faults type for test brevity.
type Injection = faults.Injection

// TestNoOpFaultsAreBitIdentical is the bit-identity guarantee of the fault
// suite: an experiment whose fault schedule cannot observe anything — zero
// magnitude, zero duration, or a fault whose faults.<name>.magnitude axis
// is swept to zero — produces exactly the digest of an experiment that
// never declared faults, under every engine. The elision happens at attach
// time (no controller, no probes, no source), so the runs are structurally
// identical, not merely numerically close.
func TestNoOpFaultsAreBitIdentical(t *testing.T) {
	engines := []struct {
		name string
		opt  Option
	}{
		{"sequential", nil},
		{"scattergather", WithEngine(func() core.Engine { return dispatch.NewScatterGather(2) })},
		{"hdispatch", WithEngine(func() core.Engine { return dispatch.NewHDispatch(2, 0) })},
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"fault-free", nil},
		{"zero magnitude", []Option{WithFault(brownout(0, 100))}},
		{"zero duration", []Option{WithFault(brownout(0.5, 0))}},
		// The sweep axis is how a chaos scenario yields its healthy
		// reference: one point on an otherwise untouched experiment.
		{"magnitude swept to zero", []Option{
			WithFault(brownout(0.5, 100)),
			func(e *Experiment) error { return applyPath(e, "faults.na.magnitude", 0) },
		}},
	}
	var baseline string
	for _, eng := range engines {
		for _, v := range variants {
			opts := append([]Option{}, v.opts...)
			if eng.opt != nil {
				opts = append(opts, eng.opt)
			}
			e, err := New("ab", testOptions(opts...)...)
			if err != nil {
				t.Fatalf("%s/%s: %v", eng.name, v.name, err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", eng.name, v.name, err)
			}
			if res.Faults != nil {
				t.Errorf("%s/%s: no-op schedule produced a fault report", eng.name, v.name)
			}
			d := res.Digest()
			if baseline == "" {
				baseline = d
				continue
			}
			if d != baseline {
				t.Errorf("%s/%s: digest %s diverged from fault-free baseline %s",
					eng.name, v.name, d, baseline)
			}
		}
	}
}

// TestEffectiveFaultChangesResultAndReports: a real injection must perturb
// the digest, apply at its exact scheduled times, and surface the recovery
// telemetry on Result.Faults — with the fault: series lifted out of
// Result.Series so the digest stays comparable with fault-free runs.
func TestEffectiveFaultChangesResultAndReports(t *testing.T) {
	run := func(opts ...Option) *Result {
		e, err := New("chaos", testOptions(opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run()
	faulted := run(WithFault(brownout(0.6, 120)))

	if faulted.Digest() == healthy.Digest() {
		t.Error("60% DC brownout left the result digest unchanged")
	}
	if faulted.Faults == nil {
		t.Fatal("effective injection produced no fault report")
	}
	rep := faulted.Faults
	if len(rep.Injections) != 1 {
		t.Fatalf("injections reported = %d", len(rep.Injections))
	}
	ir := rep.Injections[0]
	if ir.InjectedAt != 100 || ir.RecoveredAt != 220 {
		t.Errorf("applied times %v / %v, want exactly 100 / 220", ir.InjectedAt, ir.RecoveredAt)
	}
	if ir.StalledOps < 0 {
		t.Error("stalled ops not recorded at recovery")
	}
	for key := range faulted.Series {
		if strings.HasPrefix(key, "fault:") {
			t.Errorf("fault series %q leaked into Result.Series", key)
		}
	}
	for _, key := range []string{faults.KeyPhase, faults.KeyBacklog, faults.KeyBackupArrivals} {
		if rep.Series[key] == nil {
			t.Errorf("report series %q missing", key)
		}
	}
	if phase := rep.Series[faults.KeyPhase]; phase != nil {
		if got := phase.At(50); got != faults.PhaseStabilize {
			t.Errorf("phase at 50s = %v, want stabilize", got)
		}
		if got := phase.At(180); got != faults.PhaseInject {
			t.Errorf("phase at 180s = %v, want inject", got)
		}
		if got := phase.At(280); got != faults.PhaseRecover {
			t.Errorf("phase at 280s = %v, want recover", got)
		}
	}
}

// TestWithFaultClonesInjections: WithFault must deep-copy the fault so a
// sweep axis mutating one point's magnitude never reaches the caller's
// value (or a sibling point's).
func TestWithFaultClonesInjections(t *testing.T) {
	orig := &faults.DC{DC: "NA", Mag: 0.5}
	e, err := New("clone", testOptions(WithFault(Injection{
		Name: "na", Fault: orig, At: 100, Duration: 100,
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyPath(e, "faults.na.magnitude", 0.9); err != nil {
		t.Fatal(err)
	}
	if orig.Mag != 0.5 {
		t.Errorf("axis application reached the caller's fault value: %v", orig.Mag)
	}
}

// TestSweepFaultAxes grids over an injection's magnitude and duration.
// With the seed pinned by a single-valued seed axis, every grid point
// whose coordinates make the fault a no-op must reproduce the fault-free
// digest exactly, and the one effective point must diverge.
func TestSweepFaultAxes(t *testing.T) {
	base := func() (*Experiment, error) {
		return New("grid", testOptions(WithFault(brownout(0.5, 100)))...)
	}
	res, err := NewSweep("chaos-grid", base).
		Vary("faults.na.magnitude", 0, 0.5).
		Vary("faults.na.duration", 0, 100).
		Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		mag, dur := p.Values[0].Value, p.Values[1].Value
		// Re-derive the healthy reference under this point's seed.
		ref, err := New("ref", testOptions()...)
		if err != nil {
			t.Fatal(err)
		}
		ref.seed = p.Seed
		refRes, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		same := p.Res.Digest() == refRes.Digest()
		if noOp := mag == 0 || dur == 0; noOp != same {
			t.Errorf("point %d (mag=%v dur=%v): no-op=%v but digest-match=%v",
				p.Index, mag, dur, noOp, same)
		}
	}
}

// TestSweepFaultAxisValidation: a bad fault axis must fail grid
// validation before any point burns simulation time, with an error naming
// the axis — same contract as every other axis family.
func TestSweepFaultAxisValidation(t *testing.T) {
	base := func() (*Experiment, error) {
		return New("grid", testOptions(WithFault(brownout(0.5, 100)))...)
	}
	cases := []struct {
		name string
		path string
		vals []float64
	}{
		{"unknown injection", "faults.nope.magnitude", []float64{0.5}},
		{"unknown field", "faults.na.severity", []float64{0.5}},
		{"magnitude above 1", "faults.na.magnitude", []float64{0.5, 1.5}},
		{"negative duration", "faults.na.duration", []float64{-10}},
		{"missing field", "faults.na", []float64{1}},
	}
	for _, c := range cases {
		err := NewSweep("bad", base).Vary(c.path, c.vals...).Validate()
		if err == nil {
			t.Errorf("%s: grid accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.path) {
			t.Errorf("%s: error does not name the axis: %v", c.name, err)
		}
	}
}

// chaosDocument loads examples/chaos.json — the document `gdisim -doc` and
// the harness campaign run — with its fault schedule replaced.
func chaosDocument(t *testing.T, fs ...config.FaultSpec) *Experiment {
	t.Helper()
	doc, err := config.Load(filepath.Join("..", "..", "examples", "chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc.Faults = fs
	e, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// A data-center blackout that cuts the clients off from the master is a
// valid document and a run the platform cannot carry: the first cross-DC
// step expanded during the blackout has no route. That must come back from
// Run as a typed error naming the operation, the client site and the
// simulated second — it used to panic inside the cascade expander.
func TestDCBlackoutReturnsNoRouteError(t *testing.T) {
	e := chaosDocument(t, config.FaultSpec{
		Name: "eu-dark", Kind: "dc", DC: "EU", At: 100, Duration: 100, Magnitude: 1,
	})
	res, err := e.Run()
	if err == nil {
		t.Fatalf("blackout run completed with %d operations; want a no-route error", res.Stats.CompletedOps)
	}
	var noRoute *topology.NoRouteError
	if !errors.As(err, &noRoute) {
		t.Fatalf("Run error %v (%T) does not wrap a *topology.NoRouteError", err, err)
	}
	if got := [2]string{noRoute.From, noRoute.To}; got != [2]string{"EU", "NA"} && got != [2]string{"NA", "EU"} {
		t.Errorf("no route %s -> %s, want between EU and NA", noRoute.From, noRoute.To)
	}
	var op *core.OpError
	if !errors.As(err, &op) {
		t.Fatalf("Run error %v does not wrap a *core.OpError", err)
	}
	if op.Op == "" || op.DC != "EU" || op.At < 100 || op.At > 200 {
		t.Errorf("OpError %+v: want an operation from EU inside the blackout [100, 200]", op)
	}
	if !strings.Contains(err.Error(), e.Name()) {
		t.Errorf("error %q does not name the experiment", err)
	}
}

// A WAN failure with a surviving backup route is not fatal: traffic detours
// (EU - AS1 - NA) and the run completes, as the harness campaign relies on.
func TestWANFaultWithBackupRouteCompletes(t *testing.T) {
	e := chaosDocument(t, config.FaultSpec{
		Name: "atlantic", Kind: "wan", From: "NA", To: "EU", At: 100, Duration: 100, Magnitude: 1,
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CompletedOps == 0 || res.Sim.Err() != nil {
		t.Fatalf("completed %d operations, simulation error %v", res.Stats.CompletedOps, res.Sim.Err())
	}
	if res.Faults == nil || res.Run.Inf.BackupArrivals() == 0 {
		t.Fatal("the failure diverted nothing onto the backup links")
	}
}
