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
// allocs/op counts the heap objects a platform costs. The platform is laid
// out in one pass from the spec's census: every component kind is one slab
// across all tiers and pools, the parts of every CPU, RAID and SAN
// (queues, in-service arrays, miss buffers) are carved from three slabs,
// the names from one chunk, and the agent tables are reserved once, so
// what remains is a fixed count per platform and per data center: 61
// allocs/op on a 2-core Xeon, against 314 with slabs and parts per tier,
// 429 with parts slabbed per component and agent tables grown by append,
// and 835 where a server holon was allocated on its own and named with
// Sprintf (DESIGN.md "Platform layout").
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
