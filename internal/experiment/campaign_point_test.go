package experiment

import (
	"path/filepath"
	"testing"

	"repro/internal/config"
)

// campaignPointSeconds is the run window of the campaign point below, the
// size of a point of the benchmark harness' smoke campaign.
const campaignPointSeconds = 320

// loadCampaignPoint is a campaign point's factory: examples/chaos.json —
// three data centers, nine servers, two PDM workloads, a WAN partition —
// decoded and assembled at a 320 s run window.
func loadCampaignPoint() (*Experiment, error) {
	d, err := config.Load(filepath.Join("..", "..", "examples", "chaos.json"))
	if err != nil {
		return nil, err
	}
	d.Window = &config.WindowSpec{RunSeconds: campaignPointSeconds}
	return FromDocument(d)
}

// runCampaignPoint runs the point through the sweep entry point, as a
// campaign does, and returns its completed operations.
func runCampaignPoint(tb testing.TB) uint64 {
	sr, err := NewSweep("point", loadCampaignPoint).Vary("faults.atlantic.magnitude", 1).Run(1)
	if err != nil {
		tb.Fatal(err)
	}
	p := sr.Points[0]
	if p.Err != nil {
		tb.Fatal(p.Err)
	}
	return p.Res.Stats.CompletedOps
}

// campaignPointCeiling bounds the heap objects one campaign point costs:
// measured at 738 on go1.24 (load 144, compile 226, run 182, sweep 186)
// once agent tables, part slabs, route scratch, expanders, probe batches
// and response headers were sized from the spec, against 922 before (load
// 144, compile 322, run 263, sweep 193); the ceiling leaves room for
// toolchain drift, not for a return of that growth.
const campaignPointCeiling = 780

// TestCampaignPointAllocs pins what one campaign point allocates, and logs
// where: loading the document (decode and FromDocument), compiling it
// (topology, catalogs, sources, probes), running it (the simulation, its
// first-use pools and the harvest), and the sweep around it (its grid
// validation, which dry-loads the point once more).
func TestCampaignPointAllocs(t *testing.T) {
	const runs = 10
	compile := func(tb testing.TB) *Run {
		e, err := loadCampaignPoint()
		if err != nil {
			tb.Fatal(err)
		}
		r, err := e.Compile()
		if err != nil {
			tb.Fatal(err)
		}
		return r
	}
	load := testing.AllocsPerRun(runs, func() {
		if _, err := loadCampaignPoint(); err != nil {
			t.Fatal(err)
		}
	})
	compiled := testing.AllocsPerRun(runs, func() { compile(t).Sim.Shutdown() })
	executed := testing.AllocsPerRun(runs, func() {
		r := compile(t)
		defer r.Sim.Shutdown()
		if _, err := r.Execute(); err != nil {
			t.Fatal(err)
		}
	})
	var ops uint64
	total := testing.AllocsPerRun(runs, func() { ops = runCampaignPoint(t) })
	t.Logf("one point: %v allocations (load %v, compile %v, run %v, sweep %v), %d operations",
		total, load, compiled-load, executed-compiled, total-executed, ops)
	if total > campaignPointCeiling {
		t.Errorf("a campaign point costs %v allocations, want at most %d", total, campaignPointCeiling)
	}
}

// BenchmarkCampaignPoint times one campaign point end to end through the
// sweep entry point: decode, FromDocument, Compile, a 320 s run of the
// chaos document and the harvest. Run it with -benchmem: allocs/op is what
// TestCampaignPointAllocs pins.
func BenchmarkCampaignPoint(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		runCampaignPoint(b)
	}
}
