package experiment

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/cascade"
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
// measured at 359 on go1.24 (load 137, compile 96, run 92, sweep 34) once
// the sweep handed its validated base to point 0 and dry-applied its grid
// on one clone, the gate stopped sorting what passes, the PDM catalog was
// built once per process, a workload held its random stream and owner row
// itself and a new expander came in one block — against 556 before (load 142,
// compile 116, run 110, sweep 188). The ceiling leaves 6% for toolchain
// drift, not room for a return of any of that.
const campaignPointCeiling = 380

// TestCampaignPointAllocs pins what one campaign point allocates, and logs
// where: loading the document (decode and FromDocument), compiling it
// (topology, catalogs, sources, probes), running it (the simulation, its
// first-use pools and the harvest), and the sweep around it (its grid
// validation, on one clone of the base it hands to the point).
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

// campaignGrid is the benchmark harness' campaign: examples/chaos.json at
// its own 900 s window and seed 7, over fault severity, WAN bandwidth, a
// tier's core count and the fluid tier on and off — 16 points.
func campaignGrid() *Sweep {
	load := func() (*Experiment, error) {
		d, err := config.Load(filepath.Join("..", "..", "examples", "chaos.json"))
		if err != nil {
			return nil, err
		}
		d.Seed = 7
		return FromDocument(d)
	}
	return NewSweep("campaign", load).
		Vary("faults.atlantic.magnitude", 0.5, 1).
		Vary("wan.NA-EU.mbps", 45, 155).
		Vary("dcs.NA.app.cores", 4, 8).
		Vary("workloads.PDM.EU.fluid", 0, 1)
}

// BenchmarkCampaignSweep runs the harness' 16-point campaign grid at one
// and at two workers. Run it with -benchmem: allocs/op over 16 is a point's
// share, its validation included, and what the harness' campaign
// allocs_per_op divides by the operations the points complete.
func BenchmarkCampaignSweep(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sr, err := campaignGrid().Run(workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(sr.Points) != 16 {
					b.Fatalf("%d points, want 16", len(sr.Points))
				}
			}
		})
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

// TestSharedCatalogIsReadOnly: the two PDM workloads of examples/chaos.json
// launch from one catalog — the process-wide PDM catalog, built once — and
// read one program table, in which every operation compiles once for the
// run; a run with the fluid tier on and the atlantic fault active leaves
// the shared catalog's steps and costs as they were built. A second run in
// the same process, with the fluid tier off, at another step and with AS1
// launching VIS (NA given file and index tiers), reads the same
// process-wide catalogs, and after both the
// PDM and VIS catalogs still equal freshly built ones.
func TestSharedCatalogIsReadOnly(t *testing.T) {
	load := func(step float64, edit func(*config.Document)) *Experiment {
		d, err := config.Load(filepath.Join("..", "..", "examples", "chaos.json"))
		if err != nil {
			t.Fatal(err)
		}
		d.Seed, d.Step = 7, step
		if edit != nil {
			edit(d)
		}
		e, err := FromDocument(d)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := load(0.01, nil)
	if err := applyPath(e, "workloads.PDM.EU.fluid", 1); err != nil {
		t.Fatal(err)
	}
	r, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Sim.Shutdown()
	if len(r.catalogs) != 1 || r.catalogs[0].key != "PDM" {
		t.Fatalf("the PDM workloads use %d catalogs, want the one PDM catalog", len(r.catalogs))
	}
	c := r.catalogs[0]
	if !sameArray(c.ops, pdmCatalog()) {
		t.Fatal("the PDM workloads do not launch from the process-wide PDM catalog")
	}
	for i := range r.sources {
		app := &r.sources[i].app
		if !sameArray(app.Ops, c.ops) || app.Programs != c.progs {
			t.Fatalf("workload %s@%s does not launch from the shared catalog and its program table", app.App, app.DC)
		}
	}
	if r.sources[0].fluid == nil {
		t.Fatal("the fluid tier is not on for PDM@EU")
	}
	before := cloneOps(c.ops)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || len(res.Faults.Injections) != 1 || res.Faults.Injections[0].RecoveredAt <= 0 {
		t.Fatal("the atlantic fault did not run its course")
	}
	if !reflect.DeepEqual(c.ops, before) {
		t.Error("the run wrote into the shared PDM catalog")
	}
	if n := c.progs.Compiled(); n != len(c.ops) {
		t.Errorf("%d of the catalog's %d operations compiled into the shared table", n, len(c.ops))
	}

	e2 := load(0.02, func(d *config.Document) {
		// VIS reaches the file and index tiers, which chaos.json's NA lacks.
		na := &d.Infrastructure.DCs[0]
		for _, name := range []string{"fs", "idx"} {
			tier := na.Tiers[0]
			tier.Name = name
			na.Tiers = append(na.Tiers, tier)
		}
		d.Workloads[1].Ops = "VIS"
	})
	r2, err := e2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Sim.Shutdown()
	if len(r2.catalogs) != 2 || !sameArray(r2.catalogs[0].ops, pdmCatalog()) || !sameArray(r2.catalogs[1].ops, visCatalog()) {
		t.Fatal("the second run does not launch from the process-wide PDM and VIS catalogs")
	}
	if r2.sources[0].fluid != nil {
		t.Fatal("the fluid tier is on in the second run")
	}
	if _, err := r2.Execute(); err != nil {
		t.Fatal(err)
	}
	if r2.catalogs[1].progs.Compiled() == 0 {
		t.Fatal("AS1 launched no VIS operation")
	}
	if !reflect.DeepEqual(pdmCatalog(), apps.PDMOps()) {
		t.Error("the process-wide PDM catalog differs from a fresh one after two runs")
	}
	if !reflect.DeepEqual(visCatalog(), apps.VISOps()) {
		t.Error("the process-wide VIS catalog differs from a fresh one after two runs")
	}
}

// cloneOps copies a catalog down to its messages.
func cloneOps(ops []cascade.Op) []cascade.Op {
	out := make([]cascade.Op, len(ops))
	for i, op := range ops {
		out[i] = cascade.Op{Name: op.Name, Steps: make([][]cascade.Msg, len(op.Steps))}
		for j, step := range op.Steps {
			out[i].Steps[j] = slices.Clone(step)
		}
	}
	return out
}
