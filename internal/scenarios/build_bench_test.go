package scenarios

import (
	"testing"

	"repro/examples"
	"repro/internal/apps"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/refdata"
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
	d, err := decodeCase(examples.Consolidation, &cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := d.Infrastructure
	b.ReportAllocs()
	for b.Loop() {
		sim := core.NewSimulation(core.Config{Step: cfg.Step, Seed: 1})
		if _, err := topology.Build(sim, spec); err != nil {
			b.Fatal(err)
		}
		sim.Shutdown()
	}
}

// BenchmarkExpandFanStep expands the fan-out steps of CAD OPEN — apps.FanOut
// identical messages each — for a client at EU working on a file mastered
// at NA, on the consolidation platform at scale 1: what a CAD or VIS
// operation pays per parallel batch. One op is one fan step, taken in turn;
// run it with -benchmem. A run of identical messages is laid out at most
// twice, once per outcome of its memory draw, and its messages share those
// plans, so a step allocates nothing and laid-stages/step counts the stages
// of its distinct plans: 8.9 on a 2-core Xeon, against 58.4 when every
// message was laid out on its own (and 159-187 ns/op against 287-359).
func BenchmarkExpandFanStep(b *testing.B) {
	cfg := CaseConfig{Scale: 1}
	d, err := decodeCase(examples.Consolidation, &cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := d.Infrastructure
	sim := core.NewSimulation(core.Config{Step: cfg.Step, Seed: 1})
	defer sim.Shutdown()
	inf, err := topology.Build(sim, spec)
	if err != nil {
		b.Fatal(err)
	}
	var open cascade.Op
	for _, op := range apps.CADOpsBySeries(refdata.Average) {
		if op.Name == "OPEN" {
			open = op
		}
	}
	var fans []int
	for s, msgs := range open.Steps {
		if len(msgs) == apps.FanOut {
			fans = append(fans, s)
		}
	}
	var sc cascade.Scratch
	run, err := sc.Instantiate(open, sc.NewBinding(inf, inf.DC("EU"), inf.DC("NA")))
	if err != nil {
		b.Fatal(err)
	}
	laid := 0
	for _, s := range fans {
		seen := map[*core.Stage]bool{}
		for _, p := range run.Expand(s) {
			if !seen[&p.Stages[0]] {
				seen[&p.Stages[0]] = true
				laid += len(p.Stages)
			}
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if plans := run.Expand(fans[i%len(fans)]); len(plans) != apps.FanOut {
			b.Fatalf("fan step %d expanded into %d plans: %v", fans[i%len(fans)], len(plans), run.Expander.Err())
		}
		i++
	}
	b.ReportMetric(float64(laid)/float64(len(fans)), "laid-stages/step")
}
