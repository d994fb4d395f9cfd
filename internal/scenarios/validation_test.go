package scenarios

import (
	"math"
	"strings"
	"testing"

	"repro/internal/refdata"
)

func TestValidationConfigRejectsBadExperiment(t *testing.T) {
	if _, err := RunValidation(ValidationConfig{Experiment: 3}); err == nil {
		t.Error("experiment index 3 accepted")
	}
}

// A steady window that is inverted, reaches past the run or is not a
// number is an error, not a panic in the statistics; the default window,
// and the windows the benchmark harness runs, are valid.
func TestValidationConfigRejectsBadSteadyWindow(t *testing.T) {
	for _, c := range []ValidationConfig{
		{Experiment: 1, LaunchFor: 60, RunFor: 90, SteadyStart: 50, SteadyEnd: 20},
		{Experiment: 1, LaunchFor: 60, RunFor: 90, SteadyStart: 20, SteadyEnd: 120},
		{Experiment: 1, LaunchFor: 60, RunFor: 90, SteadyStart: 80},
		{Experiment: 1, LaunchFor: 60, RunFor: 90, SteadyStart: math.NaN(), SteadyEnd: 60},
	} {
		if _, err := RunValidation(c); err == nil {
			t.Errorf("steady window [%v, %v) of a %v s run accepted", c.SteadyStart, c.SteadyEnd, c.RunFor)
		}
	}
	for _, c := range []ValidationConfig{
		{Experiment: 1},
		{Experiment: 1, LaunchFor: 1, RunFor: 31, SteadyStart: 1, SteadyEnd: 31},
		{Experiment: 1, LaunchFor: 40, RunFor: 45},
		{Experiment: 1, LaunchFor: 60, RunFor: 30},
	} {
		want := c
		if err := c.defaults(); err != nil {
			t.Errorf("%+v rejected: %v", want, err)
		}
	}
}

// A steady window that holds no snapshot measures nothing: the Table 5.2
// rows and the Fig. 5-6 steady clients read missing, not a mean of zero.
func TestEmptySteadyWindowReadsMissing(t *testing.T) {
	res, err := RunValidation(ValidationConfig{
		Experiment: 1, Seed: 42,
		LaunchFor: 120, RunFor: 150, SteadyStart: 100, SteadyEnd: 110,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range res.Fidelity() {
		if !strings.HasPrefix(r.ID, "Table 5.2 ") && !strings.HasPrefix(r.ID, "Fig. 5-6 ") {
			continue
		}
		n++
		if r.Verdict != "missing" {
			t.Errorf("%s = %.2f (%s), want missing: the window [100, 110) s holds no 30 s snapshot", r.ID, r.Measured, r.Verdict)
		}
	}
	if want := 2*len(refdata.ValidationTiers) + 1; n != want {
		t.Errorf("%d Table 5.2 and Fig. 5-6 rows, want %d", n, want)
	}
}

// TestValidationExperiment2 runs the validation referee (referee.go: the
// middle experiment, the calibration anchor, at seed 42) end to end and
// holds it to the fidelity table's experiment-2 rows: Table 5.2 steady
// means, Table 5.3 RMSE and Fig. 5-6 clients. The full 38 simulated
// minutes at a 5 ms step run in a few seconds.
func TestValidationExperiment2(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation run skipped in -short")
	}
	res, err := RunValidation(ValidationReferee())
	if err != nil {
		t.Fatal(err)
	}
	requireFidelity(t, "Fidelity: "+res.Label(), res.Fidelity())
}

// TestValidationPressureOrdering runs shortened versions of experiments 1
// and 3 and checks that utilization and concurrency rise with launch
// pressure, the headline relationship of Figs. 5-6..5-10.
func TestValidationPressureOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment run skipped in -short")
	}
	short := func(exp int) *ValidationResult {
		res, err := RunValidation(ValidationConfig{
			Experiment:  exp,
			Seed:        7,
			Step:        0.005,
			LaunchFor:   14 * 60,
			RunFor:      16 * 60,
			SteadyStart: 5 * 60,
			SteadyEnd:   14 * 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := short(0)
	r3 := short(2)
	for _, tier := range refdata.ValidationTiers {
		if r3.SteadyMean[tier] <= r1.SteadyMean[tier] {
			t.Errorf("tier %s: experiment 3 (%.1f%%) not above experiment 1 (%.1f%%)",
				tier, r3.SteadyMean[tier], r1.SteadyMean[tier])
		}
	}
	c1 := r1.Clients.Mean(300, 840)
	c3 := r3.Clients.Mean(300, 840)
	if c3 <= c1 {
		t.Errorf("clients: experiment 3 (%.1f) not above experiment 1 (%.1f)", c3, c1)
	}
}
