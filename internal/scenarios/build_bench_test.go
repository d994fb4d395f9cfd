package scenarios

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// BenchmarkBuildPlatform builds the consolidation infrastructure (Fig. 6-4:
// seven data centers, their tiers, SANs and RAIDs, 640 client slots and the
// WAN) on a fresh simulation per iteration: what an experiment compiles
// once per run and a campaign once per point. Run it with -benchmem;
// allocs/op counts the heap objects a platform costs.
func BenchmarkBuildPlatform(b *testing.B) {
	cfg := CaseConfig{Scale: 1}
	if err := cfg.defaults(); err != nil {
		b.Fatal(err)
	}
	spec, err := caseInfraSpec(cfg, consolidatedTraits())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		sim := core.NewSimulation(core.Config{Step: cfg.Step, Seed: 1})
		if _, err := topology.Build(sim, spec); err != nil {
			b.Fatal(err)
		}
		sim.Shutdown()
	}
}
