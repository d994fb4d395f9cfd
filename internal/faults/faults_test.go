package faults

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/topology"
)

// chaosSpec builds a compact three-DC infrastructure with a backup link:
// NA and EU joined by a primary, EU-AS1 as the idle backup, NA-AS1
// primary — the minimal topology where failing NA-EU leaves a detour.
func chaosSpec() topology.InfraSpec {
	srv := topology.ServerSpec{
		CPU:     hardware.CPUSpec{Sockets: 1, Cores: 4, GHz: 2},
		MemGB:   16,
		NICGbps: 1,
		RAID: &hardware.RAIDSpec{
			Disks:    2,
			Disk:     hardware.DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0},
			CtrlGbps: 4, HitRate: 0,
		},
	}
	localLink := hardware.LinkSpec{Gbps: 1, LatencyMS: 0.45}
	dc := func(name string) topology.DCSpec {
		return topology.DCSpec{
			Name: name, SwitchGbps: 10,
			ClientLink: hardware.LinkSpec{Gbps: 1, LatencyMS: 1},
			Tiers: []topology.TierSpec{
				{Name: "app", Servers: 1, Server: srv, LocalLink: localLink},
			},
		}
	}
	return topology.InfraSpec{
		DCs: []topology.DCSpec{dc("NA"), dc("EU"), dc("AS1")},
		WAN: []topology.WANSpec{
			{From: "NA", To: "EU", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 45}},
			{From: "NA", To: "AS1", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 90}},
			{From: "EU", To: "AS1", Link: hardware.LinkSpec{Gbps: 0.045, LatencyMS: 100}, Backup: true},
		},
		Clients: map[string]topology.ClientSpec{
			"NA": {Slots: 2, NICGbps: 1, GHz: 2, DiskMBs: 100},
		},
	}
}

func buildTarget(t *testing.T, cfg core.Config) Target {
	t.Helper()
	if cfg.Step == 0 {
		cfg.Step = 0.001
	}
	sim := core.NewSimulation(cfg)
	t.Cleanup(sim.Shutdown)
	inf, err := topology.Build(sim, chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	return Target{Sim: sim, Infra: inf}
}

func TestAttachElidesNoOps(t *testing.T) {
	cases := []struct {
		name string
		inj  Injection
	}{
		{"zero magnitude", Injection{Name: "x", Fault: &WAN{From: "NA", To: "EU", Mag: 0}, At: 5, Duration: 10}},
		{"zero duration", Injection{Name: "x", Fault: &WAN{From: "NA", To: "EU", Mag: 1}, At: 5, Duration: 0}},
		{"zero storage", Injection{Name: "x", Fault: &Storage{DC: "NA", Tier: "app"}, At: 5, Duration: 10}},
	}
	for _, c := range cases {
		tg := buildTarget(t, core.Config{Seed: 1})
		ctrl, err := Attach(tg, []Injection{c.inj})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ctrl != nil {
			t.Errorf("%s: no-op injection attached a controller", c.name)
		}
	}
}

// TestInjectionNoOp pins the one effectiveness predicate Attach and the
// fluid tier's fallback windows share: an injection is a no-op when its
// window is empty, its fault is missing, or its fault changes nothing.
func TestInjectionNoOp(t *testing.T) {
	cases := []struct {
		name string
		inj  Injection
		want bool
	}{
		{"nil fault", Injection{Name: "x", At: 5, Duration: 10}, true},
		{"zero duration", Injection{Name: "x", Fault: &WAN{From: "NA", To: "EU", Mag: 1}, At: 5}, true},
		{"negative duration", Injection{Name: "x", Fault: &DC{DC: "EU", Mag: 1}, At: 5, Duration: -1}, true},
		{"zero-magnitude WAN", Injection{Name: "x", Fault: &WAN{From: "NA", To: "EU"}, At: 5, Duration: 10}, true},
		{"zero-magnitude DC", Injection{Name: "x", Fault: &DC{DC: "EU"}, At: 5, Duration: 10}, true},
		{"storage without derate or rebuild", Injection{Name: "x", Fault: &Storage{DC: "NA", Tier: "app"}, At: 5, Duration: 10}, true},
		{"failover to itself", Injection{Name: "x", Fault: &Failover{From: "NA", To: "NA"}, At: 5, Duration: 10}, true},
		{"WAN outage", Injection{Name: "x", Fault: &WAN{From: "NA", To: "EU", Mag: 1}, At: 5, Duration: 10}, false},
		{"DC brownout", Injection{Name: "x", Fault: &DC{DC: "EU", Mag: 0.5}, At: 0, Duration: 1e-3}, false},
		{"storage rebuild only", Injection{Name: "x", Fault: &Storage{DC: "NA", Tier: "app", RebuildMBps: 50}, At: 5, Duration: 10}, false},
		{"failover", Injection{Name: "x", Fault: &Failover{From: "NA", To: "EU"}, At: 5, Duration: 10}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.inj.NoOp(); got != c.want {
				t.Errorf("NoOp() = %v, want %v", got, c.want)
			}
		})
	}
}

// TestAttachRespectsNoFaults pins elision end to end: a schedule of no-op
// injections — zero magnitude, zero duration — leaves the simulation as if
// faults were never declared: no controller, the same run counters (no
// transition landings) and the same collector series (no fault probes).
// The effective leg proves the series comparison sees an attached
// controller.
func TestAttachRespectsNoFaults(t *testing.T) {
	run := func(injections ...Injection) (*Controller, core.RunStats, []string) {
		tg := buildTarget(t, core.Config{Seed: 1})
		ctrl, err := Attach(tg, injections)
		if err != nil {
			t.Fatal(err)
		}
		tg.Sim.RunFor(30)
		return ctrl, tg.Sim.Stats(), tg.Sim.Collector.Keys()
	}
	_, wantStats, wantKeys := run()
	ctrl, gotStats, gotKeys := run(
		Injection{Name: "dim", Fault: &WAN{From: "NA", To: "EU", Mag: 0}, At: 5, Duration: 10},
		Injection{Name: "blink", Fault: &DC{DC: "EU", Mag: 1}, At: 5, Duration: 0},
	)
	if ctrl != nil {
		t.Error("no-op schedule attached a controller")
	}
	if gotStats != wantStats {
		t.Errorf("no-op schedule changed the run counters: %+v vs %+v", gotStats, wantStats)
	}
	if !slices.Equal(gotKeys, wantKeys) {
		t.Errorf("no-op schedule changed the collector series: %v vs %v", gotKeys, wantKeys)
	}
	ctrl, _, effKeys := run(Injection{Name: "dark", Fault: &WAN{From: "NA", To: "EU", Mag: 1}, At: 5, Duration: 10})
	if ctrl == nil || slices.Equal(effKeys, wantKeys) {
		t.Errorf("effective injection left no trace (controller %v, series %v)", ctrl != nil, effKeys)
	}
}

func TestAttachValidation(t *testing.T) {
	cases := []struct {
		name string
		inj  []Injection
	}{
		{"no name", []Injection{{Fault: &WAN{From: "NA", To: "EU", Mag: 1}, Duration: 1}}},
		{"nil fault", []Injection{{Name: "x", Duration: 1}}},
		{"negative at", []Injection{{Name: "x", Fault: &WAN{From: "NA", To: "EU", Mag: 1}, At: -1, Duration: 1}}},
		{"duplicate names", []Injection{
			{Name: "x", Fault: &WAN{From: "NA", To: "EU", Mag: 1}, Duration: 1},
			{Name: "x", Fault: &WAN{From: "NA", To: "AS1", Mag: 1}, Duration: 1},
		}},
		{"unknown link", []Injection{{Name: "x", Fault: &WAN{From: "EU", To: "AS1", Mag: 1}, Duration: 1}}}, // backup, not primary
		{"magnitude above 1", []Injection{{Name: "x", Fault: &WAN{From: "NA", To: "EU", Mag: 1.5}, Duration: 1}}},
		{"dead storage", []Injection{{Name: "x", Fault: &Storage{DC: "NA", Tier: "app", Mag: 1}, Duration: 1}}},
		{"unknown tier", []Injection{{Name: "x", Fault: &Storage{DC: "NA", Tier: "db", Mag: 0.5}, Duration: 1}}},
		{"failover without daemon", []Injection{{Name: "x", Fault: &Failover{From: "NA", To: "EU"}, Duration: 1}}},
	}
	for _, c := range cases {
		tg := buildTarget(t, core.Config{Seed: 1})
		if _, err := Attach(tg, c.inj); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestControllerTransitionsAreExact(t *testing.T) {
	tg := buildTarget(t, core.Config{Seed: 1})
	ctrl, err := Attach(tg, []Injection{
		{Name: "atlantic", Fault: &WAN{From: "NA", To: "EU", Mag: 1}, At: 5, Duration: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl == nil {
		t.Fatal("effective injection did not attach")
	}
	link := tg.Infra.WANLink("NA", "EU")
	if ctrl.Phase() != PhaseStabilize {
		t.Errorf("initial phase = %d", ctrl.Phase())
	}

	tg.Sim.RunFor(10) // now mid-window: injected at exactly 5
	if !link.Failed() {
		t.Fatal("link alive mid-window")
	}
	if ctrl.Phase() != PhaseInject {
		t.Errorf("mid-window phase = %d", ctrl.Phase())
	}
	tg.Sim.RunFor(10) // past recovery at 15
	if link.Failed() {
		t.Fatal("link still failed after recovery")
	}
	if ctrl.Phase() != PhaseRecover {
		t.Errorf("post-window phase = %d", ctrl.Phase())
	}

	rep := ctrl.Finalize()
	if len(rep.Injections) != 1 {
		t.Fatalf("injections = %d", len(rep.Injections))
	}
	ir := rep.Injections[0]
	if ir.InjectedAt != 5 || ir.RecoveredAt != 15 {
		t.Errorf("applied times = %v / %v, want exactly 5 / 15", ir.InjectedAt, ir.RecoveredAt)
	}
	if ir.StalledOps != 0 {
		t.Errorf("stalled ops = %d with no workload", ir.StalledOps)
	}
	if rep.Series[KeyPhase] == nil || rep.Series[KeyBacklog] == nil || rep.Series[KeyBackupArrivals] == nil {
		t.Error("fault series missing from report")
	}
	if next := ctrl.NextPoll(20); !math.IsInf(next, 1) {
		t.Errorf("exhausted controller NextPoll = %v, want +Inf", next)
	}
}

func TestWANBrownoutDegradesAndRepairs(t *testing.T) {
	tg := buildTarget(t, core.Config{Seed: 1})
	_, err := Attach(tg, []Injection{
		{Name: "brownout", Fault: &WAN{From: "NA", To: "EU", Mag: 0.5}, At: 2, Duration: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	link := tg.Infra.WANLink("NA", "EU")
	healthy := link.Rate()

	tg.Sim.RunFor(4) // mid-window
	if !link.Degraded() {
		t.Fatal("link not degraded mid-window")
	}
	if got := link.Rate(); math.Abs(got-healthy*0.5) > healthy*1e-9 {
		t.Errorf("degraded rate = %v, want half of %v", got, healthy)
	}
	if link.Failed() {
		t.Error("brownout must keep the link routable")
	}
	tg.Sim.RunFor(4)
	if link.Degraded() || link.Rate() != healthy {
		t.Error("link not repaired after the window")
	}
}

func TestDCBrownoutDeratesEveryServer(t *testing.T) {
	tg := buildTarget(t, core.Config{Seed: 1})
	_, err := Attach(tg, []Injection{
		{Name: "thermal", Fault: &DC{DC: "EU", Mag: 0.25}, At: 1, Duration: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tg.Sim.RunFor(2) // mid-window
	// The derate is observable through the CPU horizon of queued work; a
	// cheap proxy is that recovery restores the spec rate without panics
	// and the isolated DC keeps routing (brownout, not blackout).
	if _, err := tg.Infra.Path("NA", "EU"); err != nil {
		t.Fatalf("brownout severed routing: %v", err)
	}
	tg.Sim.RunFor(2)
}

func TestDCBlackoutIsolatesAndRejoins(t *testing.T) {
	tg := buildTarget(t, core.Config{Seed: 1})
	_, err := Attach(tg, []Injection{
		{Name: "outage", Fault: &DC{DC: "AS1", Mag: 1}, At: 1, Duration: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tg.Sim.RunFor(2) // mid-window
	if _, err := tg.Infra.Path("NA", "AS1"); err == nil {
		t.Error("blacked-out DC still reachable")
	}
	if _, err := tg.Infra.Path("NA", "EU"); err != nil {
		t.Errorf("unrelated route severed: %v", err)
	}
	tg.Sim.RunFor(2)
	if _, err := tg.Infra.Path("NA", "AS1"); err != nil {
		t.Errorf("DC unreachable after rejoin: %v", err)
	}
}

func TestStorageRebuildGeneratesTraffic(t *testing.T) {
	tg := buildTarget(t, core.Config{Seed: 1})
	_, err := Attach(tg, []Injection{
		{Name: "raid", Fault: &Storage{DC: "NA", Tier: "app", Mag: 0.3, RebuildMBps: 50}, At: 1, Duration: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	tg.Sim.RunFor(10)
	// One rebuild burst per second over (1, 6): bursts at 2,3,4,5,6 —
	// each a silent completed operation.
	if ops := tg.Sim.Stats().CompletedOps; ops < 4 || ops > 6 {
		t.Errorf("rebuild completions = %d, want ~5", ops)
	}
}

func TestStorageWithoutRebuildIsQuiet(t *testing.T) {
	tg := buildTarget(t, core.Config{Seed: 1})
	_, err := Attach(tg, []Injection{
		{Name: "raid", Fault: &Storage{DC: "NA", Tier: "app", Mag: 0.3}, At: 1, Duration: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	tg.Sim.RunFor(10)
	if ops := tg.Sim.Stats().CompletedOps; ops != 0 {
		t.Errorf("derate-only storage fault launched %d ops", ops)
	}
}

func TestCloneIsolatesFaultState(t *testing.T) {
	orig := &WAN{From: "NA", To: "EU", Mag: 0.5}
	clone := orig.Clone().(*WAN)
	if err := clone.SetMagnitude(1); err != nil {
		t.Fatal(err)
	}
	if orig.Mag != 0.5 {
		t.Errorf("clone mutation leaked into the original: %v", orig.Mag)
	}
}

// A rebuild burst is one step of one message whose plan the operation
// stores: expanding it hands that plan back and allocates nothing.
func TestRebuildExpandAllocatesNothing(t *testing.T) {
	tg := buildTarget(t, core.Config{Seed: 1})
	f := &Storage{DC: "NA", Tier: "app", Mag: 0.3, RebuildMBps: 50}
	op, ok := f.rebuildOp(tg, 0)
	if !ok {
		t.Fatal("no rebuild operation for a server with storage")
	}
	if plans := op.Expand(0); len(plans) != 1 || len(plans[0].Stages) == 0 {
		t.Fatalf("rebuild expanded into %v, want one message with stages", plans)
	}
	if n := testing.AllocsPerRun(100, func() { op.Expand(0) }); n != 0 {
		t.Errorf("a rebuild expand costs %v allocations, want 0", n)
	}
}

// Phase returns the current scenario phase.
func (c *Controller) Phase() int { return c.phase }
