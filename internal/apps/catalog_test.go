package apps_test

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/refdata"
	"repro/internal/scenarios"
	"repro/internal/topology"
)

// TestPackedCatalogsMatchOracle: every packed catalog holds, value for
// value, what the step-by-step builders it replaced produced.
func TestPackedCatalogsMatchOracle(t *testing.T) {
	for st, size := range apps.FileSizeMB {
		if got, want := apps.CADOps(size), apps.OracleCADOps(size); !reflect.DeepEqual(got, want) {
			t.Errorf("CADOps(%v) (%s) differs from the oracle", size, st)
		}
	}
	if !reflect.DeepEqual(apps.VISOps(), apps.OracleVISOps()) {
		t.Error("VISOps differs from the oracle")
	}
	if !reflect.DeepEqual(apps.PDMOps(), apps.OraclePDMOps()) {
		t.Error("PDMOps differs from the oracle")
	}
}

// TestCalibratedCatalogsMatchOracle: calibrating the packed CAD catalog
// gives what calibrating the oracle's gives, at the validation platform's
// home data center and at the consolidated platform's.
func TestCalibratedCatalogsMatchOracle(t *testing.T) {
	const step = 0.01
	homes := []struct {
		name  string
		build func() (*topology.Infrastructure, func())
	}{
		{"validation", func() (*topology.Infrastructure, func()) {
			sim := core.NewSimulation(core.Config{Step: step, Seed: 1})
			inf, err := topology.Build(sim, scenarios.ValidationInfraSpec())
			if err != nil {
				t.Fatal(err)
			}
			return inf, sim.Shutdown
		}},
		{"consolidation", func() (*topology.Infrastructure, func()) {
			cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{Scale: 0.25, Step: step})
			if err != nil {
				t.Fatal(err)
			}
			return cs.Inf, cs.Sim.Shutdown
		}},
	}
	for _, h := range homes {
		inf, stop := h.build()
		na := inf.DC("NA")
		got, err := apps.CalibratedCADOps(inf, na, na, step)
		stop()
		if err != nil {
			t.Fatal(err)
		}
		inf, stop = h.build()
		na = inf.DC("NA")
		var want []cascade.Op
		for _, op := range apps.OracleCADOps(apps.FileSizeMB[refdata.Average]) {
			c, err := cascade.CalibrateClientWork(op, cascade.NewBinding(inf, na, na), step,
				refdata.Table51Durations[refdata.Average][op.Name])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, c)
		}
		stop()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: calibrated CAD catalog differs from the oracle's", h.name)
		}
	}
}

// TestCatalogAllocs pins what a packed catalog costs: two allocations per
// operation, its step header and the one array behind every step, plus the
// catalog slice.
func TestCatalogAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(50, func() { apps.PDMOps() }); got != 2*7+1 {
		t.Errorf("PDMOps: %v allocs, want %d", got, 2*7+1)
	}
	op := apps.CADOps(2000)[7]
	if got := testing.AllocsPerRun(50, func() { apps.ChunkHeavySteps(op, 0.1) }); got != 2 {
		t.Errorf("ChunkHeavySteps: %v allocs, want 2", got)
	}
}
