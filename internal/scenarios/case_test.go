package scenarios

import (
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
		t.Errorf("EU self-ownership = %v, Table 7.2 says %v", apm["EU"]["EU"], refdata.Table72APM["EU"]["EU"]/100)
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
// effectiveness (Fig. 6-14) and the latency behaviour of Table 6.2, all as
// rows of the fidelity table. About 5 seconds of wall time.
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
	requireFidelity(t, "Fidelity: consolidation, scale 0.25, 11-17h GMT, seed 3", cs.Fidelity())
	if cs.Idx["NA"].Durations.Len() == 0 {
		t.Error("no INDEXBUILD completed")
	}
}

// TestMultiMasterPeakWindow reproduces the Chapter 7 comparisons against
// the consolidated platform as rows of the fidelity table: loaded
// utilization on the downsized DNA hardware, idle backup links (Table 7.3)
// and shorter staleness; per-master push volumes keep their ordering.
// About 5 seconds of wall time.
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
	requireFidelity(t, "Fidelity: multimaster, scale 0.25, 11-17h GMT, seed 3", cs.Fidelity())

	// Figs. 7-4/7-5: DNA pushes the largest owned volume, DEU second.
	pushNA := cs.Sync["NA"].DailyPushMB()
	pushEU := cs.Sync["EU"].DailyPushMB()
	pushAUS := cs.Sync["AUS"].DailyPushMB()
	if !(pushNA > pushEU && pushEU > pushAUS) {
		t.Errorf("push volume ordering NA(%.0f) > EU(%.0f) > AUS(%.0f) violated",
			pushNA, pushEU, pushAUS)
	}
}
