package scenarios

import (
	"testing"

	"repro/internal/refdata"
)

// TestBackgroundProcessDays runs both platforms' daemons over a full
// simulated day without interactive clients and checks the Chapter 6 vs 7
// comparisons: the multiple-master design shortens staleness and index lag
// at DNA (Fig. 7-6 vs Fig. 6-14) and cuts DNA's transfer volume by about
// the share the thesis reports, with DNA > DEU > others in owned volume
// (Figs. 7-4/7-5). Its bands are for these full-day runs and the
// reduction compares two runs, so they stay here rather than in the
// fidelity table.
func TestBackgroundProcessDays(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day background runs skipped in -short")
	}
	run := func(multi bool) *CaseStudy {
		cfg := CaseConfig{Step: 0.05, Seed: 7, Scale: 0.25, DisableClients: true}
		var cs *CaseStudy
		var err error
		if multi {
			cs, err = NewMultiMaster(cfg)
		} else {
			cs, err = NewConsolidation(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		return cs
	}
	cons := run(false)
	multi := run(true)

	// Fig. 6-14: consolidated R^max_SR and R^max_IB near the thesis values.
	if st := cons.Sync["NA"].MaxStalenessMin(); st < 20 || st > 40 {
		t.Errorf("consolidated R_SR = %.1f min, paper %.0f", st, refdata.ConsolidatedMaxStaleMin)
	}
	if ib := cons.Idx["NA"].MaxUnsearchableMin(); ib < 30 || ib > 75 {
		t.Errorf("consolidated R_IB = %.1f min, paper %.0f", ib, refdata.ConsolidatedMaxUnsearchMin)
	}

	// Fig. 7-6: both improve under multiple masters.
	if multi.Sync["NA"].MaxStalenessMin() >= cons.Sync["NA"].MaxStalenessMin() {
		t.Error("multi-master staleness did not improve")
	}
	if multi.Idx["NA"].MaxUnsearchableMin() >= cons.Idx["NA"].MaxUnsearchableMin() {
		t.Error("multi-master index lag did not improve")
	}

	// Figs. 7-4/7-5: DNA's sync volume drops by about the thesis' share,
	// DEU second.
	reduction := 1 - multi.Sync["NA"].DailyPushMB()/cons.Sync["NA"].DailyPushMB()
	if reduction < 0.30 || reduction > 0.60 {
		t.Errorf("NA volume reduction = %.0f%%, paper %.0f%%", reduction*100,
			(1-refdata.MultiMasterPeakPushNAMB/refdata.ConsolidatedPeakPushMB)*100)
	}
	if !(multi.Sync["NA"].DailyPushMB() > multi.Sync["EU"].DailyPushMB()) {
		t.Error("DNA should push the largest owned volume")
	}
	for _, m := range []string{"AS1", "SA", "AFR", "AUS"} {
		if multi.Sync[m].DailyPushMB() >= multi.Sync["EU"].DailyPushMB() {
			t.Errorf("%s pushes more than DEU, contradicting Table 7.2 ownership", m)
		}
	}
}
