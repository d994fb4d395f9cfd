package scenarios

import "fmt"

// The referee runs: the one configuration per scenario that the fidelity
// table's bands were set on and are checked against. The scenario tests
// (TestValidationExperiment2, TestConsolidationPeakWindow,
// TestMultiMasterPeakWindow) and `gdisim -scenario` at its default flags
// all run these, so a verdict means the same thing wherever it is printed.

// ValidationReferee is validation experiment 2 (the calibration anchor) at
// seed 42; experiments 1 and 3 carry no bands.
func ValidationReferee() ValidationConfig {
	return ValidationConfig{Experiment: 1, Seed: 42}
}

// CaseReferee is the case studies' referee: quarter scale over the
// 11:00-17:00 GMT peak at a 10 ms step, seed 3.
func CaseReferee() CaseConfig {
	return CaseConfig{Step: 0.01, Seed: 3, Scale: 0.25, StartHour: 11, EndHour: 17}
}

// Label names a validation run the way its fidelity table is titled.
func (r *ValidationResult) Label() string {
	return fmt.Sprintf("validation experiment %d, seed %d", r.Experiment+1, r.Config.Seed)
}

// Label names a case-study run the way its fidelity table is titled.
func (cs *CaseStudy) Label() string {
	return fmt.Sprintf("%s, scale %g, %d-%dh GMT, seed %d",
		cs.Name, cs.Cfg.Scale, cs.Cfg.StartHour, cs.Cfg.EndHour, cs.Cfg.Seed)
}
