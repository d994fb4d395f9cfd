package scenarios

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/refdata"
	"repro/internal/topology"
)

func TestCaseConfigValidation(t *testing.T) {
	if _, err := NewConsolidation(CaseConfig{StartHour: 20, EndHour: 10}); err == nil {
		t.Error("inverted hour window accepted")
	}
	if _, err := NewConsolidation(CaseConfig{EndHour: 30}); err == nil {
		t.Error("out-of-range end hour accepted")
	}
}

// Twenty builds of the consolidation spec register the client pools under
// the same agent IDs, in sorted data-center order: those IDs fix the drain
// order of same-tick completions, so they are part of a seed's results, and
// the Clients map's iteration order must not reach them.
func TestConsolidationClientPoolOrderIsStable(t *testing.T) {
	cfg := CaseConfig{Seed: 7}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	spec, err := caseInfraSpec(cfg, consolidatedTraits())
	if err != nil {
		t.Fatal(err)
	}
	var first []core.AgentID
	for i := 0; i < 20; i++ {
		inf, err := topology.Build(core.NewSimulation(core.Config{Step: cfg.Step, Seed: cfg.Seed}), spec)
		if err != nil {
			t.Fatal(err)
		}
		var ids []core.AgentID
		for _, name := range inf.DCNames() {
			if pool := inf.DC(name).Clients; pool != nil {
				ids = append(ids, pool.Local.ID())
			}
		}
		if len(ids) < 2 || !slices.IsSorted(ids) {
			t.Fatalf("build %d: client pool IDs %v over sorted DCs are not ascending", i, ids)
		}
		if i == 0 {
			first = ids
		} else if !slices.Equal(ids, first) {
			t.Fatalf("build %d: client pool IDs %v, first build had %v", i, ids, first)
		}
	}
}

func TestMultiMasterAPMIsStochastic(t *testing.T) {
	apm, err := MultiMasterAPM()
	if err != nil {
		t.Fatal(err)
	}
	if err := apm.Validate(); err != nil {
		t.Errorf("normalized Table 7.2 invalid: %v", err)
	}
	if apm["EU"]["EU"] < 0.8 {
		t.Errorf("EU self-ownership = %v, Table 7.2 says ~0.84", apm["EU"]["EU"])
	}
}

func TestConsolidationBuildsWithoutClients(t *testing.T) {
	cs, err := NewConsolidation(CaseConfig{
		Scale: 0.1, StartHour: 12, EndHour: 13, DisableClients: true, Step: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.Run()
	if cs.Sync["NA"].Durations.Len() == 0 {
		t.Error("background-only run completed no SYNCHREP cycles")
	}
}

// TestConsolidationPeakWindow reproduces the Chapter 6 headline results on
// a quarter-scale run over the 11:00-17:00 GMT peak: tier utilizations
// (Figs. 6-12/6-13), link utilizations (Table 6.1), background-process
// effectiveness (Fig. 6-14) and the latency behaviour of Table 6.2.
// Roughly 50 seconds of wall time.
func TestConsolidationPeakWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study run skipped in -short")
	}
	cs, err := NewConsolidation(CaseConfig{
		Step: 0.01, Seed: 3, Scale: 0.25, StartHour: 11, EndHour: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.Run()

	// Fig. 6-12: DNA tier peaks (paper: app 73%, db 32%, idx 30%, fs 31%).
	checks := []struct {
		tier     string
		lo, hi   float64
		paperPct float64
	}{
		{"app", 60, 88, 73},
		{"db", 28, 52, 32},
		{"idx", 20, 42, 30},
		{"fs", 22, 45, 31},
	}
	for _, c := range checks {
		pct, _ := cs.PeakCPUPct("NA", c.tier)
		if pct < c.lo || pct > c.hi {
			t.Errorf("NA %s peak = %.1f%%, want within [%v, %v] (paper %.0f%%)",
				c.tier, pct, c.lo, c.hi, c.paperPct)
		}
	}
	// Fig. 6-13: DAUS file tier barely loaded (paper ~3.5%).
	if pct, _ := cs.PeakCPUPct("AUS", "fs"); pct > 8 {
		t.Errorf("AUS fs peak = %.1f%%, paper reports ~3.5%%", pct)
	}

	// Table 6.1: backup links idle, primaries loaded but unsaturated,
	// NA->AS1 among the busiest (it aggregates four push destinations).
	for _, backup := range [][2]string{{"EU", "AFR"}, {"EU", "AS1"}} {
		if u := cs.LinkUtilPct(backup[0], backup[1], 12, 16); u != 0 {
			t.Errorf("backup link %s->%s carried %.1f%%, want 0", backup[0], backup[1], u)
		}
	}
	for _, primary := range [][2]string{
		{"NA", "SA"}, {"NA", "EU"}, {"NA", "AS1"},
		{"AS1", "AFR"}, {"AS1", "AS2"}, {"AS1", "AUS"},
	} {
		u := cs.LinkUtilPct(primary[0], primary[1], 12, 16)
		if u < 15 || u > 85 {
			t.Errorf("link %s->%s util = %.1f%%, outside the working band", primary[0], primary[1], u)
		}
	}

	// Fig. 6-14: R^max_SR ~31 minutes.
	stale := cs.Sync["NA"].MaxStalenessMin()
	if math.Abs(stale-refdata.ConsolidatedMaxStaleMin) > 8 {
		t.Errorf("R^max_SR = %.1f min, paper reports ~%.0f", stale, refdata.ConsolidatedMaxStaleMin)
	}
	if cs.Idx["NA"].Durations.Len() == 0 {
		t.Error("no INDEXBUILD completed")
	}

	// Table 6.2 shape: metadata-chatty EXPLORE suffers a visible latency
	// penalty at DAUS, while payload-bound OPEN stays nearly flat.
	expNA, ok1 := cs.Sim.Responses.MeanAll("CAD EXPLORE", "NA")
	expAUS, ok2 := cs.Sim.Responses.MeanAll("CAD EXPLORE", "AUS")
	if ok1 && ok2 {
		if expAUS-expNA < 2 {
			t.Errorf("EXPLORE latency penalty = %.2fs, want > 2s (paper +9.1s)", expAUS-expNA)
		}
	}
	openNA, ok1 := cs.Sim.Responses.MeanAll("CAD OPEN", "NA")
	openAUS, ok2 := cs.Sim.Responses.MeanAll("CAD OPEN", "AUS")
	if ok1 && ok2 {
		if rel := math.Abs(openAUS-openNA) / openNA; rel > 0.15 {
			t.Errorf("OPEN AUS/NA deviation = %.1f%%, paper reports ~1%%", rel*100)
		}
	}
}

// TestMultiMasterPeakWindow reproduces the Chapter 7 comparisons against
// the consolidated platform: smaller per-master sync volumes, shorter
// staleness, loaded utilization on the downsized DNA hardware, and idle
// backup links (Table 7.3). Roughly 55 seconds of wall time.
func TestMultiMasterPeakWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study run skipped in -short")
	}
	cs, err := NewMultiMaster(CaseConfig{
		Step: 0.01, Seed: 3, Scale: 0.25, StartHour: 11, EndHour: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.Run()

	// §7.4.1: DNA runs hot on half the hardware (paper: app 78%, db 39%);
	// DEU carries the second-largest ownership (paper: app 57%, db 48%).
	if pct, _ := cs.PeakCPUPct("NA", "app"); pct < 60 || pct > 92 {
		t.Errorf("NA app peak = %.1f%%, paper reports ~78%%", pct)
	}
	if pct, _ := cs.PeakCPUPct("EU", "app"); pct < 45 || pct > 85 {
		t.Errorf("EU app peak = %.1f%%, paper reports ~57%%", pct)
	}
	if pct, _ := cs.PeakCPUPct("EU", "db"); pct < 30 || pct > 70 {
		t.Errorf("EU db peak = %.1f%%, paper reports ~48%%", pct)
	}

	// Table 7.3: backups still idle.
	for _, backup := range [][2]string{{"EU", "AFR"}, {"EU", "AS1"}} {
		if u := cs.LinkUtilPct(backup[0], backup[1], 12, 16); u != 0 {
			t.Errorf("backup link %s->%s carried %.1f%%, want 0", backup[0], backup[1], u)
		}
	}

	// §7.4.3 / Fig. 7-6: every master syncs a subset, so staleness at DNA
	// improves versus the consolidated platform's ~31 minutes (paper: 19).
	staleNA := cs.Sync["NA"].MaxStalenessMin()
	if staleNA >= refdata.ConsolidatedMaxStaleMin {
		t.Errorf("multi-master R^max_SR = %.1f min, should beat the consolidated ~31", staleNA)
	}
	if staleNA < 15 {
		t.Errorf("R^max_SR = %.1f min below the launch interval", staleNA)
	}

	// Figs. 7-4/7-5: DNA pushes the largest owned volume, DEU second.
	pushNA := cs.Sync["NA"].DailyPushMB()
	pushEU := cs.Sync["EU"].DailyPushMB()
	pushAUS := cs.Sync["AUS"].DailyPushMB()
	if !(pushNA > pushEU && pushEU > pushAUS) {
		t.Errorf("push volume ordering NA(%.0f) > EU(%.0f) > AUS(%.0f) violated",
			pushNA, pushEU, pushAUS)
	}
}
