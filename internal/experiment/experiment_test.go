package experiment

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/background"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/topology"
	"repro/internal/workload"
)

// testSpec is a compact two-tier data center: enough for the PDM cascade
// (clients <-> app <-> db) while staying fast to simulate.
func testSpec() topology.InfraSpec {
	srv := func(cores int) topology.ServerSpec {
		return topology.ServerSpec{
			CPU:     hardware.CPUSpec{Sockets: 1, Cores: cores, GHz: 2.5},
			MemGB:   32,
			NICGbps: 10,
			RAID: &hardware.RAIDSpec{
				Disks: 2, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
				CtrlGbps: 4, HitRate: 0.05,
			},
		}
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	return topology.InfraSpec{
		DCs: []topology.DCSpec{{
			Name: "NA", SwitchGbps: 20,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []topology.TierSpec{
				{Name: "app", Servers: 2, Server: srv(8), LocalLink: local},
				{Name: "db", Servers: 1, Server: srv(8), LocalLink: local},
			},
		}},
		Clients: map[string]topology.ClientSpec{
			"NA": {Slots: 32, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
		},
	}
}

// daemonSpec is testSpec with the file and index tiers the daemons reach
// at their master.
func daemonSpec() topology.InfraSpec {
	s := testSpec()
	app := s.DCs[0].Tiers[0]
	fs, idx := app, app
	fs.Name, idx.Name = "fs", "idx"
	s.DCs[0].Tiers = append(s.DCs[0].Tiers, fs, idx)
	return s
}

// testOptions assembles a small PDM experiment running a few simulated
// minutes — the shared fixture of the experiment and sweep tests.
func testOptions(extra ...Option) []Option {
	opts := []Option{
		WithInfra(testSpec()),
		WithSeed(11),
		WithDuration(300),
		WithAccessMatrix(workload.SingleMaster([]string{"NA"}, "NA")),
		WithWorkload(Workload{
			App: "PDM", DC: "NA",
			Users:          workload.BusinessDay(40, 0, 24, 40),
			OpsPerUserHour: 30,
		}),
	}
	return append(opts, extra...)
}

// TestExperimentRunEndToEnd drives the primary surface: assemble, run,
// harvest. The run must complete operations, register the infrastructure
// and workload probes, and report coherent run statistics.
func TestExperimentRunEndToEnd(t *testing.T) {
	e, err := New("smoke", testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CompletedOps == 0 {
		t.Error("no operations completed")
	}
	if res.Stats.Seconds != 300 {
		t.Errorf("simulated %v seconds, want 300", res.Stats.Seconds)
	}
	for _, key := range []string{"cpu:NA:app", "cpu:NA:db", "PDM:NA:active", "PDM:NA:loggedin"} {
		if res.Series[key] == nil {
			t.Errorf("series %q not harvested (have %v)", key, res.SeriesKeys())
		}
	}
	if got, want := res.Name, "smoke"; got != want {
		t.Errorf("result name %q, want %q", got, want)
	}
	if res.Responses == nil || len(res.Responses.Keys()) == 0 {
		t.Error("no response populations recorded")
	}
}

// TestExperimentDeterminism: two runs of the same experiment are
// bit-identical; a different seed diverges.
func TestExperimentDeterminism(t *testing.T) {
	digest := func(seed uint64) string {
		e, err := New("det", testOptions(WithSeed(seed))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest()
	}
	a, b := digest(7), digest(7)
	if a != b {
		t.Errorf("same experiment produced different digests:\n%s\n%s", a, b)
	}
	if c := digest(8); c == a {
		t.Error("different seeds produced identical results")
	}
}

// TestExperimentRejectsBadAssembly pins the actionable-error contract of
// the option surface.
func TestExperimentRejectsBadAssembly(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"no name", nil, "non-empty name"},
		{"no infra", []Option{WithDuration(10)}, "WithInfra"},
		{"no window", []Option{WithInfra(testSpec())}, "run window"},
		{"window conflict", []Option{WithInfra(testSpec()), WithDuration(10), WithWindow(0, 24)}, "mutually exclusive"},
		{"bad window", []Option{WithInfra(testSpec()), WithWindow(9, 9)}, "bad hour window"},
		{"bad step", []Option{WithStep(0)}, "step must be positive"},
		{"NaN step", []Option{WithStep(math.NaN())}, "step must be positive and finite"},
		{"infinite step", []Option{WithStep(math.Inf(1))}, "step must be positive and finite"},
		{"NaN collect interval", []Option{WithCollectEvery(math.NaN())}, "collect interval must be positive and finite"},
		{"infinite collect interval", []Option{WithCollectEvery(math.Inf(1))}, "collect interval must be positive and finite"},
		{"NaN duration", []Option{WithDuration(math.NaN())}, "duration must be positive and finite"},
		{"infinite duration", []Option{WithDuration(math.Inf(1))}, "duration must be positive and finite"},
		{"workload unknown DC", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithWorkload(Workload{App: "PDM", DC: "MARS", OpsPerUserHour: 1}),
		}, "unknown DC"},
		{"workload no mix", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithWorkload(Workload{App: "WEB", DC: "NA", OpsPerUserHour: 1}),
		}, `unknown operation set "WEB"`},
		{"workload Ops and Set", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithWorkload(Workload{App: "PDM", DC: "NA", OpsPerUserHour: 1, Ops: pdmCatalog(), Set: "PDM"}),
		}, "both Ops and Set"},
		{"workload VIS@NA", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithWorkload(Workload{App: "VIS", DC: "NA", OpsPerUserHour: 1, Set: "VIS@NA"}),
		}, "takes no @<dc>"},
		{"workload CAD at unknown DC", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithWorkload(Workload{App: "CAD", DC: "NA", OpsPerUserHour: 1, Set: "CAD@MARS"}),
		}, `calibrated at DC "MARS"`},
		{"workload CAD at no DC", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithWorkload(Workload{App: "CAD", DC: "NA", OpsPerUserHour: 1, Set: "CAD@"}),
		}, "names no DC"},
		{"workload no apm", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithWorkload(Workload{App: "PDM", DC: "NA", OpsPerUserHour: 1}),
		}, "access matrix"},
		{"daemon unknown master", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithAccessMatrix(workload.SingleMaster([]string{"NA"}, "NA")),
			WithDaemons(Daemons{Masters: []string{"MARS"}}),
		}, "not a data center"},
		{"duplicate workload identity", []Option{
			WithInfra(testSpec()), WithDuration(10),
			WithAccessMatrix(workload.SingleMaster([]string{"NA"}, "NA")),
			WithWorkload(Workload{App: "PDM", DC: "NA", OpsPerUserHour: 1}),
			WithWorkload(Workload{App: "PDM", DC: "NA", OpsPerUserHour: 2}),
		}, "distinct Workload.Stream"},
	}
	for _, tc := range cases {
		name := "bad"
		if tc.name == "no name" {
			name = ""
		}
		_, err := New(name, tc.opts...)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A weights list mismatching the resolved mix length is a compile
	// error, not the runtime panic AppWorkload reserves for wiring bugs —
	// the mix length is only known once the set is built.
	badWeights, err := New("weights", testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	badWeights.workloads[0].Weights = []float64{1, 2}
	if _, err := badWeights.Compile(); err == nil || !strings.Contains(err.Error(), "weights") {
		t.Errorf("mismatched weights accepted: %v", err)
	}

	// An explicit Stream equal to the other workload's derived hash is the
	// same stream — validation compares effective streams, not raw fields.
	_, err = New("hash-collision", testOptions(WithWorkload(Workload{
		App: "PDM", DC: "NA", OpsPerUserHour: 5,
		Users:  workload.BusinessDay(10, 0, 24, 10),
		Stream: workload.EffectiveStream("PDM", "NA", 0),
	}))...)
	if err == nil || !strings.Contains(err.Error(), "distinct Workload.Stream") {
		t.Errorf("explicit stream colliding with the derived hash accepted: %v", err)
	}

	// Two workloads sharing App and DC are fine once their streams differ.
	_, err = New("twins", testOptions(WithWorkload(Workload{
		App: "PDM", DC: "NA", OpsPerUserHour: 5,
		Users:  workload.BusinessDay(10, 0, 24, 10),
		Stream: 99,
	}))...)
	if err != nil {
		t.Errorf("distinct streams rejected: %v", err)
	}
}

// TestExperimentRejectsNonFiniteInputs pins the gate on numeric workload
// and daemon fields a Go caller sets directly: NaN fails every check, a
// rate must be positive and finite, curves finite and non-negative, and a
// daemon parameter finite and non-negative (0 still selects the default).
// A NaN rate that passed New would hang Run drawing Poisson(NaN) arrivals.
func TestExperimentRejectsNonFiniteInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	withWorkload := func(edit func(*Workload)) []Option {
		w := Workload{
			App: "VIS", DC: "NA", OpsPerUserHour: 5,
			Users: workload.BusinessDay(10, 0, 24, 10),
		}
		edit(&w)
		return testOptions(WithWorkload(w))
	}
	withDaemons := func(edit func(*Daemons)) []Option {
		d := Daemons{Masters: []string{"NA"}, Growth: background.GrowthModel{"NA": workload.BusinessDay(100, 13, 22, 5)}}
		edit(&d)
		return testOptions(WithInfra(daemonSpec()), WithDaemons(d))
	}
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"NaN rate", withWorkload(func(w *Workload) { w.OpsPerUserHour = nan }), "operation rate must be positive and finite"},
		{"infinite rate", withWorkload(func(w *Workload) { w.OpsPerUserHour = inf }), "operation rate must be positive and finite"},
		{"negative infinite rate", withWorkload(func(w *Workload) { w.OpsPerUserHour = -inf }), "operation rate must be positive and finite"},
		{"zero rate", withWorkload(func(w *Workload) { w.OpsPerUserHour = 0 }), "operation rate must be positive and finite"},
		{"negative rate", withWorkload(func(w *Workload) { w.OpsPerUserHour = -1 }), "operation rate must be positive and finite"},
		{"NaN users", withWorkload(func(w *Workload) { w.Users[7] = nan }), "users hour 7"},
		{"negative users", withWorkload(func(w *Workload) { w.Users[3] = -1 }), "users hour 3"},
		{"infinite users", withWorkload(func(w *Workload) { w.Users[0] = inf }), "users hour 0"},
		{"NaN ThinBelow", withWorkload(func(w *Workload) { w.ThinBelow = nan }), "ThinBelow"},
		{"NaN fluid threshold", withWorkload(func(w *Workload) { w.Fluid.Above = nan }), "fluid threshold Above"},
		{"NaN fluid guard", withWorkload(func(w *Workload) { w.Fluid = Fluid{Above: 0.01, RhoMax: nan} }), "RhoMax"},
		{"NaN growth", withDaemons(func(d *Daemons) { c := d.Growth["NA"]; c[5] = nan; d.Growth["NA"] = c }), "growth curve for NA: hour 5"},
		{"negative growth", withDaemons(func(d *Daemons) { d.Growth["NA"] = workload.BusinessDay(-5, 0, 24, -5) }), "growth curve for NA"},
		{"NaN headroom", withDaemons(func(d *Daemons) { d.IndexHeadroom = nan }), "headroom NaN"},
		{"negative headroom", withDaemons(func(d *Daemons) { d.IndexHeadroom = -2 }), "headroom -2"},
		{"NaN weight", withWorkload(func(w *Workload) { w.Weights = []float64{1, nan} }), "weight 1 is NaN"},
		{"infinite weight", withWorkload(func(w *Workload) { w.Weights = []float64{inf, 1} }), "weight 0 is +Inf"},
		{"negative weight", withWorkload(func(w *Workload) { w.Weights = []float64{-1, 2} }), "weight 0 is -1"},
		{"all-zero weights", withWorkload(func(w *Workload) { w.Weights = []float64{0, 0} }), "sum to 0"},
		{"overflowing weights", withWorkload(func(w *Workload) { w.Weights = []float64{math.MaxFloat64, math.MaxFloat64} }), "sum to +Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New("non-finite", tc.opts...)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Zero daemon parameters select the defaults and pass.
	if _, err := New("defaults", withDaemons(func(*Daemons) {})...); err != nil {
		t.Errorf("default daemon parameters rejected: %v", err)
	}
}

// TestWithFluidValidation pins the fluid assembly errors: the option
// demands a declared workload and sane parameters, and compilation rejects
// two fluid-configured workloads sharing an app@dc identity (their analytic
// series keys would collide).
func TestWithFluidValidation(t *testing.T) {
	if _, err := New("undeclared", testOptions(
		WithFluid("CAD", "NA", Fluid{Above: 0.01}),
	)...); err == nil || !strings.Contains(err.Error(), "no workload CAD@NA") {
		t.Errorf("fluid on an undeclared workload: %v", err)
	}
	if _, err := New("zero", testOptions(
		WithFluid("PDM", "NA", Fluid{}),
	)...); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("zero threshold: %v", err)
	}
	if _, err := New("guard", testOptions(
		WithFluid("PDM", "NA", Fluid{Above: 0.01, RhoMax: 1}),
	)...); err == nil || !strings.Contains(err.Error(), "RhoMax") {
		t.Errorf("unit guard: %v", err)
	}
	// Twin workloads (distinct streams) are legal — but engaging the fluid
	// tier on both collides on the app@dc-keyed analytic series.
	_, err := New("twins", testOptions(
		WithWorkload(Workload{
			App: "PDM", DC: "NA", OpsPerUserHour: 5,
			Users:  workload.BusinessDay(10, 0, 24, 10),
			Stream: 99,
		}),
		WithFluid("PDM", "NA", Fluid{Above: 0.01}),
	)...)
	if err == nil || !strings.Contains(err.Error(), "fluid") {
		t.Errorf("two fluid twins accepted: %v", err)
	}
}

// TestDocumentRoundTrip is the one-surface guarantee: a JSON scenario
// document compiles to the same Result as the equivalent Go-built
// experiment — byte for byte, via the result digest.
func TestDocumentRoundTrip(t *testing.T) {
	doc := &config.Document{
		Name: "doc-equiv",
		Seed: 23,
		Step: 0.01,
		Window: &config.WindowSpec{
			RunSeconds: 300,
		},
		Infrastructure: testSpec(),
		Workloads: []config.WorkloadSpec{{
			App: "PDM", DC: "NA",
			Users:          workload.BusinessDay(40, 0, 24, 40),
			OpsPerUserHour: 30,
			ThinBelow:      0.9,
		}, {
			// A second, analytically aggregated population: 3.3e-3 expected
			// arrivals per tick clears the 1e-3 threshold, so this workload
			// runs fluid for the whole window — the document mapping of the
			// fluid block is pinned by the analytic series in the digest.
			App: "PDMF", DC: "NA", Ops: "PDM",
			Users:          workload.BusinessDay(40, 0, 24, 40),
			OpsPerUserHour: 30,
			Fluid:          &config.FluidSpec{Above: 1e-3, RhoMax: 0.8},
		}},
	}

	// Serialize and re-load the document, so the test covers the JSON wire
	// format too, not just the in-memory struct.
	path := t.TempDir() + "/doc.json"
	if err := doc.Save(path); err != nil {
		t.Fatal(err)
	}
	fromDoc, err := LoadDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	docRes, err := fromDoc.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The Go-built equivalent: same infrastructure, same workload declared
	// through the option surface (the document defaults to a single-master
	// matrix per workload DC).
	goExp, err := New("doc-equiv",
		WithInfra(testSpec()),
		WithSeed(23),
		WithStep(0.01),
		WithDuration(300),
		WithWorkload(Workload{
			App: "PDM", DC: "NA",
			Users:          workload.BusinessDay(40, 0, 24, 40),
			OpsPerUserHour: 30,
			ThinBelow:      0.9,
			APM:            workload.SingleMaster([]string{"NA"}, "NA"),
		}),
		WithWorkload(Workload{
			App: "PDMF", DC: "NA",
			Users:          workload.BusinessDay(40, 0, 24, 40),
			OpsPerUserHour: 30,
			Fluid:          Fluid{Above: 1e-3, RhoMax: 0.8},
			Set:            "PDM",
			APM:            workload.SingleMaster([]string{"NA"}, "NA"),
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	goRes, err := goExp.Run()
	if err != nil {
		t.Fatal(err)
	}

	if docRes.Digest() != goRes.Digest() {
		t.Errorf("document-compiled result diverged from the Go-built equivalent:\ndoc %s (%d ops)\ngo  %s (%d ops)",
			docRes.Digest(), docRes.Stats.CompletedOps, goRes.Digest(), goRes.Stats.CompletedOps)
	}
}

// TestDocumentRejectsRemovedEngines pins the engine field of a document:
// the selectors that used to pick a parallel engine fail compilation with a
// typed error naming the selector and the way to use more cores, instead of
// being silently ignored, while "" and "sequential" still run.
func TestDocumentRejectsRemovedEngines(t *testing.T) {
	for _, sel := range []string{"sharded:1", "sharded:4", "sharded:auto", "scattergather:4", "hdispatch:2", "hdispatch:2:64"} {
		_, err := FromDocument(engineDoc(sel))
		if !errors.Is(err, ErrEngineRemoved) {
			t.Errorf("engine %q: FromDocument error %v, want ErrEngineRemoved", sel, err)
			continue
		}
		for _, want := range []string{sel, "never depended", "-workers", "Sweep.Run"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("engine %q: error %q does not mention %q", sel, err, want)
			}
		}
	}
	var digests []string
	for _, sel := range []string{"", "sequential"} {
		e, err := FromDocument(engineDoc(sel))
		if err != nil {
			t.Fatalf("engine %q rejected: %v", sel, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("engine %q: %v", sel, err)
		}
		digests = append(digests, res.Digest())
	}
	if digests[0] != digests[1] {
		t.Errorf(`engine "" and "sequential" produced different results`)
	}
}

// engineDoc is a one-minute, one-DC PDM document selecting the given engine.
func engineDoc(engine string) *config.Document {
	return &config.Document{
		Name: "engines", Seed: 23, Step: 0.01, Engine: engine,
		Window:         &config.WindowSpec{RunSeconds: 60},
		Infrastructure: testSpec(), // one DC
		Workloads: []config.WorkloadSpec{{
			App: "PDM", DC: "NA",
			Users:          workload.BusinessDay(40, 0, 24, 40),
			OpsPerUserHour: 30,
		}},
	}
}

// TestDocumentRejectsShardSurplus: a document asking for more shards than
// its topology has data centers used to fail a shard-count check; with the
// sharded engine gone from documents it fails like every other shard
// count — sharded:1 over one DC included, which used to run — with
// ErrEngineRemoved, and the same document without the selector runs.
func TestDocumentRejectsShardSurplus(t *testing.T) {
	for _, sel := range []string{"sharded:2", "sharded:1"} {
		if _, err := FromDocument(engineDoc(sel)); !errors.Is(err, ErrEngineRemoved) || !strings.Contains(err.Error(), sel) {
			t.Errorf("engine %q over one DC: FromDocument error %v, want ErrEngineRemoved naming the selector", sel, err)
		}
	}
	e, err := FromDocument(engineDoc(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// tagEngine is a sequential engine with an identity, so two instances
// never compare equal.
type tagEngine struct {
	core.SequentialEngine
	id int
}

// TestParseEngine pins the engine-selector grammar of a document: exactly
// "" and "sequential" compile; every other selector — the old parallel
// forms and malformed ones alike — fails with ErrEngineRemoved. An
// experiment's engine factory runs once per compile, so two compiles never
// share an engine.
func TestParseEngine(t *testing.T) {
	for _, ok := range []string{"", "sequential"} {
		if _, err := FromDocument(engineDoc(ok)); err != nil {
			t.Errorf("engine %q: %v", ok, err)
		}
	}
	for _, bad := range []string{"scattergather:4", "scatter-gather:2", "hdispatch:2", "hdispatch:2:64", "h-dispatch:8",
		"sharded:1", "sharded:8", "warp", "scattergather", "scattergather:0", "hdispatch:x", "hdispatch:2:0",
		"sequential:3", "Sequential", "sharded", "sharded:0", "sharded:x"} {
		if _, err := FromDocument(engineDoc(bad)); !errors.Is(err, ErrEngineRemoved) {
			t.Errorf("engine %q: FromDocument error %v, want ErrEngineRemoved", bad, err)
		}
	}
	made := 0
	e, err := New("factory", WithInfra(testSpec()), WithDuration(1), WithEngine(func() core.Engine {
		made++
		return &tagEngine{id: made}
	}))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Sim.Shutdown()
	defer r2.Sim.Shutdown()
	if made != 2 {
		t.Errorf("engine factory ran %d times for two compiles, want 2", made)
	}
}

// TestShardedCount: the document decoder no longer probes a selector's
// shard count against the DC population. config decoding accepts every
// selector, whatever its count, and compilation rejects them all alike with
// ErrEngineRemoved, while "" and "sequential" pass both.
func TestShardedCount(t *testing.T) {
	cases := map[string]bool{ // selector -> rejected
		"sharded:4":        true,
		"sharded:1":        true,
		"sharded:0":        true,
		"sharded:x":        true,
		"sharded":          true,
		"sharded:4:extras": true,
		"scattergather:4":  true,
		"hdispatch:2:64":   true,
		"":                 false,
		"sequential":       false,
	}
	for sel, rejected := range cases {
		d := engineDoc(sel)
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := config.Decode(&buf); err != nil {
			t.Errorf("engine %q: decoding failed: %v", sel, err)
		}
		if _, err := FromDocument(d); errors.Is(err, ErrEngineRemoved) != rejected || !rejected && err != nil {
			t.Errorf("engine %q: FromDocument error %v, want rejected = %v", sel, err, rejected)
		}
	}
}
