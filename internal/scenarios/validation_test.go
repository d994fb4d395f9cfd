package scenarios

import (
	"testing"

	"repro/internal/refdata"
)

func TestValidationConfigRejectsBadExperiment(t *testing.T) {
	if _, err := RunValidation(ValidationConfig{Experiment: 3}); err == nil {
		t.Error("experiment index 3 accepted")
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
