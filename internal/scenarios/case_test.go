package scenarios

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/examples"
	"repro/internal/core"
	"repro/internal/refdata"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestCaseConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  CaseConfig
	}{
		{"inverted hour window", CaseConfig{StartHour: 20, EndHour: 10}},
		{"out-of-range end hour", CaseConfig{EndHour: 30}},
		{"negative scale", CaseConfig{Scale: -1}},
		{"NaN scale", CaseConfig{Scale: math.NaN()}},
		{"infinite scale", CaseConfig{Scale: math.Inf(1)}},
		{"negative infinite scale", CaseConfig{Scale: math.Inf(-1)}},
		{"negative step", CaseConfig{Step: -0.01}},
	} {
		if cs, err := NewConsolidation(c.cfg); err == nil {
			cs.Sim.Shutdown()
			t.Errorf("%s accepted", c.name)
		}
	}
}

// Twenty builds of the consolidation spec register the client pools under
// the same agent IDs, in sorted data-center order: those IDs fix the drain
// order of same-tick completions, so they are part of a seed's results, and
// the Clients map's iteration order must not reach them.
func TestConsolidationClientPoolOrderIsStable(t *testing.T) {
	cfg := CaseConfig{Seed: 7}
	d, err := decodeCase(examples.Consolidation, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []core.AgentID
	for i := 0; i < 20; i++ {
		inf, err := topology.Build(core.NewSimulation(core.Config{Step: cfg.Step, Seed: cfg.Seed}), d.Infrastructure)
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

// The multimaster document's access matrix is row-stochastic and is the
// published Table 7.2 with each row divided by its sum, taken in sorted
// owner order: a sum in map order would differ by an ulp from run to run.
func TestMultiMasterAPMIsStochastic(t *testing.T) {
	d, err := decodeCase(examples.MultiMaster, &CaseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	apm := d.AccessMatrix
	if err := apm.Validate(); err != nil {
		t.Errorf("normalized Table 7.2 invalid: %v", err)
	}
	want := workload.AccessMatrix{}
	for from, row := range refdata.Table72APM {
		sum := 0.0
		for _, to := range slices.Sorted(maps.Keys(row)) {
			sum += row[to]
		}
		want[from] = map[string]float64{}
		for to, p := range row {
			want[from][to] = p / sum
		}
	}
	if !reflect.DeepEqual(apm, want) {
		t.Errorf("access matrix %v, want Table 7.2 normalized: %v", apm, want)
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

// Table 6.1 is read over 12:00-16:00 GMT. A background-only run over
// 00:00-02:00 never reaches that window, so every link row must read
// missing: a mean over no samples reads 0, which the backup links' [0, 0]
// band would pass without anything having been measured.
func TestLinkRowsMissingOutsideTheirWindow(t *testing.T) {
	cs, err := NewConsolidation(CaseConfig{
		Seed: 3, Scale: 0.05, StartHour: 0, EndHour: 2, DisableClients: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.Run()
	n := 0
	for _, r := range cs.Fidelity() {
		if strings.HasPrefix(r.ID, "Table 6.1 ") {
			n++
			if r.Verdict != "missing" {
				t.Errorf("%s = %.2f (%s), want missing: the run covers 0-2h GMT", r.ID, r.Measured, r.Verdict)
			}
		}
	}
	if n != len(refdata.Table61LinkUtil) {
		t.Errorf("%d Table 6.1 rows, want %d", n, len(refdata.Table61LinkUtil))
	}
	// A window the run does cover still reads a mean.
	if v := cs.LinkUtilPct("NA", "EU", 0, 2); math.IsNaN(v) {
		t.Error("NA->EU over the run's own window reads NaN")
	}
}

// TestConsolidationPeakWindow reproduces the Chapter 6 headline results on
// the case-study referee (referee.go: a quarter-scale run over the
// 11:00-17:00 GMT peak, seed 3): tier utilizations (Figs. 6-12/6-13), link
// utilizations (Table 6.1), background-process effectiveness (Fig. 6-14)
// and the latency behaviour of Table 6.2, all as rows of the fidelity
// table, and pins the run's digest as the Go builder recorded it. About 5
// seconds of wall time.
func TestConsolidationPeakWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study run skipped in -short")
	}
	cs, err := NewConsolidation(CaseReferee())
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, cs, "52fb2a68c4ab8372b6a6c07c1241716296cd313df5e5709e3bc39da8a24112b8") // 36 449 ops
	requireFidelity(t, "Fidelity: "+cs.Label(), cs.Fidelity())
	if cs.Idx["NA"].Durations.Len() == 0 {
		t.Error("no INDEXBUILD completed")
	}
}

// TestMultiMasterPeakWindow reproduces the Chapter 7 comparisons against
// the consolidated platform on the case-study referee as rows of the
// fidelity table: loaded utilization on the downsized DNA hardware, idle
// backup links (Table 7.3) and shorter staleness; per-master push volumes
// keep their ordering; the run's digest is pinned as the Go builder
// recorded it. About 5 seconds of wall time.
func TestMultiMasterPeakWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study run skipped in -short")
	}
	cs, err := NewMultiMaster(CaseReferee())
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, cs, "76eded637a7ad734fa3ebcb02e3ba024b2f1f81751f3abd38ba104faff0c2f9e") // 36 709 ops
	requireFidelity(t, "Fidelity: "+cs.Label(), cs.Fidelity())

	// Figs. 7-4/7-5: DNA pushes the largest owned volume, DEU second.
	pushNA := cs.Sync["NA"].DailyPushMB()
	pushEU := cs.Sync["EU"].DailyPushMB()
	pushAUS := cs.Sync["AUS"].DailyPushMB()
	if !(pushNA > pushEU && pushEU > pushAUS) {
		t.Errorf("push volume ordering NA(%.0f) > EU(%.0f) > AUS(%.0f) violated",
			pushNA, pushEU, pushAUS)
	}
}
