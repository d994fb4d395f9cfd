package scenarios

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/metrics"
	"repro/internal/refdata"
)

// Band is the closed range a measured value must fall in; an open side is
// an infinity.
type Band struct{ Lo, Hi float64 }

func (b *Band) String() string {
	if b == nil {
		return "-"
	}
	return fmt.Sprintf("[%.4g, %.4g]", b.Lo, b.Hi)
}

// FidelityRow is one thesis number: the artifact it comes from, the run it
// is read off, the published value and the band the scenario's test holds
// the measurement to. Measured and Verdict are set by evaluation.
type FidelityRow struct {
	ID         string  // artifact label, e.g. "Table 6.1 NA->AS1 util %"
	Scenario   string  // "validation", or a case study's Name
	Experiment int     // validation rows: the experiment index (0-2)
	Thesis     float64 // read from internal/refdata, never re-typed
	// Band is nil for a row no test checks: printed for comparison only,
	// until seed-replicated confidence intervals can give it a band.
	Band *Band
	read func(run) float64 // NaN: the run did not measure it

	Measured float64
	Verdict  string // "pass", "FAIL", "unchecked" (no band) or "missing"
}

// run is the finished scenario a reader takes its value off: val for
// validation rows, cs for the case studies.
type run struct {
	val *ValidationResult
	cs  *CaseStudy
}

// fidelityTable holds every thesis number the reproduction reports. A band
// is the tolerance one seed's reduced-scale run is held to; validation is
// banded on experiment 2 only, the run TestValidationExperiment2 makes.
var fidelityTable = buildFidelityTable()

func buildFidelityTable() []FidelityRow {
	var rows []FidelityRow
	inf := math.Inf(1)
	for i := range refdata.ValidationExperiments {
		add := func(id string, thesis float64, b *Band, read func(*ValidationResult) float64) {
			if i != 1 {
				b = nil
			}
			rows = append(rows, FidelityRow{ID: fmt.Sprintf(id, i+1), Scenario: "validation", Experiment: i,
				Thesis: thesis, Band: b, read: func(r run) float64 { return read(r.val) }})
		}
		for _, tier := range refdata.ValidationTiers {
			ref := refdata.Table52Physical[i][tier]
			add("Table 5.2 exp %d "+tier+" mean %%", ref.Mean, &Band{ref.Mean - 8, ref.Mean + 8},
				func(r *ValidationResult) float64 { return r.SteadyMean[tier] })
			add("Table 5.2 exp %d "+tier+" std %%", ref.Std, nil,
				func(r *ValidationResult) float64 { return r.SteadyStd[tier] })
		}
		for _, key := range slices.Sorted(maps.Keys(refdata.Table53RMSE[i])) {
			read, hi := func(r *ValidationResult) float64 { return r.RMSECPU[key] }, 16.0
			switch key {
			case "clients":
				read, hi = func(r *ValidationResult) float64 { return r.RMSEClients }, 25
			case "resp":
				read, hi = func(r *ValidationResult) float64 { return r.RespRMSEPct }, 28
			}
			add("Table 5.3 exp %d RMSE "+key+" %%", refdata.Table53RMSE[i][key], &Band{-inf, hi}, read)
		}
		c := refdata.SteadyStateClients[i]
		add("Fig. 5-6 exp %d steady clients", c, &Band{c - 8, c + 8},
			func(r *ValidationResult) float64 { return r.Clients.Mean(r.Config.SteadyStart, r.Config.SteadyEnd) })
	}

	add := func(sc, id string, thesis float64, b *Band, read func(*CaseStudy) float64) {
		rows = append(rows, FidelityRow{ID: id, Scenario: sc, Thesis: thesis, Band: b,
			read: func(r run) float64 { return read(r.cs) }})
	}
	peak := func(dc, tier string) func(*CaseStudy) float64 {
		return func(cs *CaseStudy) float64 {
			pct, _ := cs.PeakCPUPct(dc, tier)
			return pct
		}
	}
	push := func(master string) func(*CaseStudy) float64 {
		return func(cs *CaseStudy) float64 { return cs.peakPushMB(master) }
	}
	add("consolidation", "Fig. 6-12 NA app peak %", refdata.ConsolidatedAppPeak*100, &Band{60, 88}, peak("NA", "app"))
	add("consolidation", "Fig. 6-12 NA db peak %", refdata.ConsolidatedDBPeak*100, &Band{28, 52}, peak("NA", "db"))
	add("consolidation", "Fig. 6-12 NA idx peak %", refdata.ConsolidatedIdxPeak*100, &Band{20, 42}, peak("NA", "idx"))
	add("consolidation", "Fig. 6-12 NA fs peak %", refdata.ConsolidatedFSPeak*100, &Band{22, 45}, peak("NA", "fs"))
	add("consolidation", "Fig. 6-13 AUS fs peak %", refdata.ConsolidatedAUSFSPeak*100, &Band{-inf, 8}, peak("AUS", "fs"))
	add("consolidation", "Fig. 6-14 NA R^max_SR min", refdata.ConsolidatedMaxStaleMin, &Band{23, 39}, (*CaseStudy).staleNA)
	add("consolidation", "Fig. 6-14 NA R^max_IB min", refdata.ConsolidatedMaxUnsearchMin, nil, (*CaseStudy).unsearchNA)
	add("consolidation", "Fig. 6-11 NA peak push MB/h full-scale", refdata.ConsolidatedPeakPushMB, nil, push("NA"))
	add("multimaster", "§7.4.1 NA app peak %", refdata.MultiMasterAppPeakNA*100, &Band{60, 92}, peak("NA", "app"))
	add("multimaster", "§7.4.1 NA db peak %", refdata.MultiMasterDBPeakNA*100, nil, peak("NA", "db"))
	add("multimaster", "§7.4.1 EU app peak %", refdata.MultiMasterAppPeakEU*100, &Band{45, 85}, peak("EU", "app"))
	add("multimaster", "§7.4.1 EU db peak %", refdata.MultiMasterDBPeakEU*100, &Band{30, 70}, peak("EU", "db"))
	// Every master syncs a subset, so DNA's staleness must beat (stay
	// strictly below) the consolidated platform's, but it cannot drop below
	// the launch interval.
	add("multimaster", "Fig. 7-6 NA R^max_SR min", refdata.MultiMasterMaxStaleMin,
		&Band{refdata.SynchRepIntervalMin, math.Nextafter(refdata.ConsolidatedMaxStaleMin, 0)}, (*CaseStudy).staleNA)
	add("multimaster", "Fig. 7-6 NA R^max_IB min", refdata.MultiMasterMaxUnsearchMin, nil, (*CaseStudy).unsearchNA)
	add("multimaster", "Fig. 7-4 NA peak push MB/h full-scale", refdata.MultiMasterPeakPushNAMB, nil, push("NA"))
	add("multimaster", "Fig. 7-5 EU peak push MB/h full-scale", refdata.MultiMasterPeakPushEUMB, nil, push("EU"))

	// A link the thesis reports idle (a backup) must carry nothing.
	links := func(sc, table string, ref map[string]float64, working *Band) {
		for _, key := range slices.Sorted(maps.Keys(ref)) {
			b := working
			if ref[key] == 0 {
				b = &Band{0, 0}
			}
			from, to, _ := strings.Cut(key, "->")
			add(sc, table+" "+key+" util %", ref[key], b, func(cs *CaseStudy) float64 { return cs.LinkUtilPct(from, to, 12, 16) })
		}
	}
	links("consolidation", "Table 6.1", refdata.Table61LinkUtil, &Band{15, 85})
	links("multimaster", "Table 7.3", refdata.Table73LinkUtil, nil)

	// Table 6.2: metadata-chatty EXPLORE pays a visible latency penalty at
	// DAUS, payload-bound OPEN stays nearly flat.
	for _, r := range refdata.Table62Latency {
		var b *Band
		if r.Op == "OPEN" {
			b = &Band{-15, 15}
		}
		add("consolidation", "Table 6.2 "+r.Op+" delta %", r.DeltaPct, b, func(cs *CaseStudy) float64 {
			na, aus := cs.latency(r.Op)
			return (aus - na) / na * 100
		})
		if r.Op == "EXPLORE" {
			add("consolidation", "Table 6.2 EXPLORE R_AUS-R_NA s", r.RAUS-r.RNA, &Band{2, inf}, func(cs *CaseStudy) float64 {
				na, aus := cs.latency(r.Op)
				return aus - na
			})
		}
	}
	return rows
}

// staleNA and unsearchNA return R^max_SR and R^max_IB at DNA, NaN when the
// case study runs no daemons.
func (cs *CaseStudy) staleNA() float64 {
	if d := cs.Sync["NA"]; d != nil {
		return d.MaxStalenessMin()
	}
	return math.NaN()
}

func (cs *CaseStudy) unsearchNA() float64 {
	if d := cs.Idx["NA"]; d != nil {
		return d.MaxUnsearchableMin()
	}
	return math.NaN()
}

// latency returns the mean response time of a CAD operation at DNA and at
// DAUS, NaN unless both sites completed it.
func (cs *CaseStudy) latency(op string) (na, aus float64) {
	na, okNA := cs.Sim.Responses.MeanAll("CAD "+op, "NA")
	aus, okAUS := cs.Sim.Responses.MeanAll("CAD "+op, "AUS")
	if !okNA || !okAUS {
		return math.NaN(), math.NaN()
	}
	return na, aus
}

// peakPushMB returns a master's busiest hour of SYNCHREP pushes, summed
// over destinations and scaled to the full-size platform; NaN when the
// master runs no daemon.
func (cs *CaseStudy) peakPushMB(master string) float64 {
	d := cs.Sync[master]
	if d == nil {
		return math.NaN()
	}
	hours := cs.Cfg.EndHour - cs.Cfg.StartHour
	total := make([]float64, hours)
	for _, dc := range cs.Inf.DCNames() {
		for h, v := range d.HourlyPushMB(dc, hours) {
			total[h] += v
		}
	}
	return slices.Max(total) / cs.Cfg.Scale
}

// evaluate reads the rows of one scenario (and validation experiment) off
// a finished run and judges each against its band.
func evaluate(scenario string, exp int, r run) []FidelityRow {
	var out []FidelityRow
	for _, row := range fidelityTable {
		if row.Scenario != scenario || row.Experiment != exp {
			continue
		}
		v, b := row.read(r), row.Band
		row.Measured, row.Verdict = v, "FAIL"
		switch {
		case math.IsNaN(v):
			row.Verdict = "missing"
		case b == nil:
			row.Verdict = "unchecked"
		case v >= b.Lo && v <= b.Hi:
			row.Verdict = "pass"
		}
		out = append(out, row)
	}
	return out
}

// Fidelity evaluates the fidelity rows of this run's experiment.
func (r *ValidationResult) Fidelity() []FidelityRow {
	return evaluate("validation", r.Experiment, run{val: r})
}

// Fidelity evaluates the fidelity rows of this case study's scenario.
func (cs *CaseStudy) Fidelity() []FidelityRow { return evaluate(cs.Name, 0, run{cs: cs}) }

// Failed reports whether a banded row read FAIL or missing: on a referee
// run (referee.go) that is a failed check.
func (r FidelityRow) Failed() bool { return r.Band != nil && r.Verdict != "pass" }

// FidelityReport renders evaluated rows: thesis value, measurement, band
// and verdict.
func FidelityReport(title string, rows []FidelityRow) *metrics.Table {
	t := &metrics.Table{Title: title, Headers: []string{"Artifact", "thesis", "measured", "band", "verdict"}}
	for _, r := range rows {
		t.AddRow(r.ID, fmt.Sprintf("%.2f", r.Thesis), fmt.Sprintf("%.2f", r.Measured), r.Band.String(), r.Verdict)
	}
	return t
}
