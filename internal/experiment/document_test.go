package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/hardware"
	"repro/internal/topology"
	"repro/internal/workload"
)

// gateDoc is a one-DC document exercising every field family the gate
// checks — window, step, workload with a fluid block, access matrix,
// daemons with growth and a fault — that compiles cleanly, so each bad
// row below fails for its own mutation.
func gateDoc() *config.Document {
	d := engineDoc("")
	d.Infrastructure = daemonSpec()
	d.Workloads[0].Fluid = &config.FluidSpec{Above: 0.8, RhoMax: 0.85}
	d.AccessMatrix = workload.SingleMaster([]string{"NA"}, "NA")
	d.Daemons = &config.DaemonsSpec{
		Masters:   []string{"NA"},
		GrowthMBh: map[string]workload.Curve{"NA": workload.BusinessDay(100, 13, 22, 5)},
	}
	d.Faults = []config.FaultSpec{{Name: "slow-app", Kind: "storage", DC: "NA", Tier: "app", At: 10, Duration: 10, Magnitude: 0.5}}
	return d
}

// badDocuments holds one mutation per check the document surface makes:
// the gate's (through FromDocument) and the fault checks that need the
// built target (through Compile).
// badDocument is one row of badDocuments: gateDoc with mutate applied and,
// when daemonsField is set, that JSON member spliced into the encoded
// daemons object — the way to write a field the document no longer has.
type badDocument struct {
	name         string
	mutate       func(*config.Document)
	daemonsField string
}

// encode returns the row's document as JSON.
func (c badDocument) encode(tb testing.TB) []byte {
	d := gateDoc()
	if c.mutate != nil {
		c.mutate(d)
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	if c.daemonsField == "" {
		return buf.Bytes()
	}
	return bytes.Replace(buf.Bytes(), []byte(`"daemons": {`), []byte(`"daemons": {`+c.daemonsField+","), 1)
}

var badDocuments = []badDocument{
	{name: "no name", mutate: func(d *config.Document) { d.Name = "" }},
	{name: "no data centers", mutate: func(d *config.Document) { d.Infrastructure.DCs = nil }},
	{name: "workload unknown DC", mutate: func(d *config.Document) { d.Workloads[0].DC = "MARS" }},
	{name: "workload without app", mutate: func(d *config.Document) { d.Workloads[0].App = "" }},
	{name: "zero rate", mutate: func(d *config.Document) { d.Workloads[0].OpsPerUserHour = 0 }},
	{name: "CAD at unknown DC", mutate: func(d *config.Document) { d.Workloads[0].Ops = "CAD@MARS" }},
	{name: "VIS at a DC", mutate: func(d *config.Document) { d.Workloads[0].Ops = "VIS@NA" }},
	{name: "CAD at no DC", mutate: func(d *config.Document) { d.Workloads[0].Ops = "CAD@" }},
	{name: "access matrix row not a distribution", mutate: func(d *config.Document) { d.AccessMatrix = workload.AccessMatrix{"NA": {"NA": 0.5}} }},
	{name: "fluid threshold 0", mutate: func(d *config.Document) { d.Workloads[0].Fluid = &config.FluidSpec{Above: 0} }},
	{name: "fluid guard 1", mutate: func(d *config.Document) { d.Workloads[0].Fluid = &config.FluidSpec{Above: 0.01, RhoMax: 1} }},
	{name: "negative fluid guard", mutate: func(d *config.Document) { d.Workloads[0].Fluid = &config.FluidSpec{Above: 0.01, RhoMax: -0.5} }},
	{name: "negative fluid threshold", mutate: func(d *config.Document) { d.Workloads[0].Fluid = &config.FluidSpec{Above: -1} }},
	{name: "all-zero weights", mutate: func(d *config.Document) { d.Workloads[0].Fluid, d.Workloads[0].Weights = nil, pdmWeights() }},
	{name: "negative weight", mutate: func(d *config.Document) { d.Workloads[0].Weights = pdmWeights(-1, 2) }},
	{name: "negative step", mutate: func(d *config.Document) { d.Step = -0.01 }},
	{name: "negative run length", mutate: func(d *config.Document) { d.Window = &config.WindowSpec{RunSeconds: -60} }},
	{name: "run length and hour window", mutate: func(d *config.Document) { d.Window = &config.WindowSpec{StartHour: 1, EndHour: 2, RunSeconds: 60} }},
	{name: "inverted hour window", mutate: func(d *config.Document) { d.Window = &config.WindowSpec{StartHour: 5, EndHour: 3} }},
	{name: "empty window", mutate: func(d *config.Document) { d.Window = &config.WindowSpec{} }},
	{name: "daemons without masters", mutate: func(d *config.Document) { d.Daemons.Masters = nil }},
	{name: "daemon master unknown", mutate: func(d *config.Document) { d.Daemons.Masters = []string{"MARS"} }},
	{name: "growth for unknown DC", mutate: func(d *config.Document) { d.Daemons.GrowthMBh["MARS"] = workload.BusinessDay(10, 0, 24, 10) }},
	{name: "negative growth", mutate: func(d *config.Document) { d.Daemons.GrowthMBh["NA"] = workload.BusinessDay(-10, 0, 24, -10) }},
	{name: "sync interval field", daemonsField: `"syncIntervalMin": 15`},
	{name: "negative index headroom", mutate: func(d *config.Document) { d.Daemons.IndexHeadroom = -1 }},
	{name: "daemons without access matrix", mutate: func(d *config.Document) { d.AccessMatrix = nil }},
	{name: "daemon master without fs tier", mutate: masterWithoutFS},
	{name: "growth DC without access matrix row", mutate: growthWithoutAPMRow},
	{name: "fault without name", mutate: func(d *config.Document) { d.Faults[0].Name = "" }},
	{name: "duplicate fault name", mutate: func(d *config.Document) { d.Faults = append(d.Faults, d.Faults[0]) }},
	{name: "negative fault at", mutate: func(d *config.Document) { d.Faults[0].At = -1 }},
	{name: "negative fault duration", mutate: func(d *config.Document) { d.Faults[0].Duration = -1 }},
	{name: "unknown fault kind", mutate: func(d *config.Document) { d.Faults[0].Kind = "meteor" }},
	{name: "wan fault endpoints", mutate: func(d *config.Document) {
		d.Faults[0] = config.FaultSpec{Name: "cut", Kind: "wan", From: "NA", To: "MARS", At: 10, Duration: 10, Magnitude: 1}
	}},
	{name: "dc fault unknown DC", mutate: func(d *config.Document) {
		d.Faults[0] = config.FaultSpec{Name: "dark", Kind: "dc", DC: "MARS", At: 10, Duration: 10, Magnitude: 1}
	}},
	{name: "storage fault unknown DC", mutate: func(d *config.Document) { d.Faults[0].DC = "MARS" }},
	{name: "storage fault without tier", mutate: func(d *config.Document) { d.Faults[0].Tier = "" }},
	{name: "failover endpoints", mutate: func(d *config.Document) {
		d.Faults[0] = config.FaultSpec{Name: "move", Kind: "failover", From: "MARS", To: "NA", At: 10, Duration: 10}
	}},
}

// pdmWeights returns one weight per operation of the PDM catalog: the
// leading ones from lead, the rest zero.
func pdmWeights(lead ...float64) []float64 {
	w := make([]float64, len(pdmCatalog()))
	copy(w, lead)
	return w
}

// masterWithoutFS drops the file tier of the daemons' master, which every
// SYNCHREP cycle reads and writes.
func masterWithoutFS(d *config.Document) {
	tiers := d.Infrastructure.DCs[0].Tiers
	d.Infrastructure.DCs[0].Tiers = slices.DeleteFunc(tiers, func(t topology.TierSpec) bool { return t.Name == "fs" })
}

// growthWithoutAPMRow adds a second data center, EU, that generates data
// but has no access-matrix row to split it by owner.
func growthWithoutAPMRow(d *config.Document) {
	eu := d.Infrastructure.DCs[0]
	eu.Name = "EU"
	d.Infrastructure.DCs = append(d.Infrastructure.DCs, eu)
	wan := hardware.LinkSpec{Gbps: 1, LatencyMS: 40}
	d.Infrastructure.WAN = []topology.WANSpec{{From: "NA", To: "EU", Link: wan}, {From: "EU", To: "NA", Link: wan}}
	d.Daemons.GrowthMBh["EU"] = workload.BusinessDay(50, 8, 17, 5)
}

// TestDaemonGateNamesTheGap: a daemon setup whose launch would dereference
// a missing tier or access-matrix row fails in the gate, and the error names
// the data center and what it lacks.
func TestDaemonGateNamesTheGap(t *testing.T) {
	for _, c := range []struct {
		mutate func(*config.Document)
		want   string
	}{
		{masterWithoutFS, `daemon master NA has no "fs" tier`},
		{growthWithoutAPMRow, "the access matrix has no row for EU"},
	} {
		d := gateDoc()
		c.mutate(d)
		if _, err := FromDocument(d); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %v does not mention %q", err, c.want)
		}
	}
}

// TestValidateRejectsBadDocuments pins one row per document check: every
// bad document ends in an error — from config.Decode for a field the
// document lacks, from FromDocument's gate, or from Compile where the check
// needs the built target — and never in a panic.
func TestValidateRejectsBadDocuments(t *testing.T) {
	e, err := FromDocument(gateDoc())
	if err != nil {
		t.Fatalf("base document rejected: %v", err)
	}
	r, err := e.Compile()
	if err != nil {
		t.Fatalf("base document does not compile: %v", err)
	}
	r.Sim.Shutdown()
	for _, c := range badDocuments {
		t.Run(c.name, func(t *testing.T) {
			d, err := config.Decode(bytes.NewReader(c.encode(t)))
			if err != nil {
				if c.daemonsField == "" {
					t.Fatalf("the encoded document does not decode: %v", err)
				}
				return
			}
			e, err := FromDocument(d)
			if err != nil {
				return
			}
			r, err := e.Compile()
			if err == nil {
				r.Sim.Shutdown()
				t.Error("invalid document accepted by FromDocument and Compile")
			}
		})
	}
}

// TestOneGateAcrossSurfaces: a Go option, a document field and a sweep
// axis that set the same value fail with the same rule, because all three
// only set fields and the one gate decides.
func TestOneGateAcrossSurfaces(t *testing.T) {
	noServers := testSpec()
	noServers.DCs[0].Tiers[0].Servers = 0
	cases := []struct {
		name  string
		opt   Option
		doc   func(*config.Document)
		axis  string
		value float64
		want  string
	}{
		{"negative step", WithStep(-0.5), func(d *config.Document) { d.Step = -0.5 }, "step", -0.5,
			"step must be positive and finite, got -0.5"},
		{"negative rate", WithWorkload(Workload{App: "VIS", DC: "NA", OpsPerUserHour: -3}), func(d *config.Document) { d.Workloads[0].OpsPerUserHour = -3 }, "workloads.PDM.NA.ops", -3,
			"operation rate must be positive and finite, got -3"},
		{"negative fluid threshold", WithFluid("PDM", "NA", Fluid{Above: -1}), func(d *config.Document) { d.Workloads[0].Fluid.Above = -1 }, "workloads.PDM.NA.fluid", -1,
			"fluid threshold Above must be finite and non-negative, got -1"},
		{"zero servers", WithInfra(noServers), func(d *config.Document) { d.Infrastructure.DCs[0].Tiers[0].Servers = 0 }, "dcs.NA.app.servers", 0,
			`invalid TierSpec name="app" servers=0`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, optErr := New("option", testOptions(c.opt)...)
			d := gateDoc()
			c.doc(d)
			_, docErr := FromDocument(d)
			errs := []error{optErr, docErr, NewSweep("axis", func() (*Experiment, error) { return FromDocument(gateDoc()) }).
				Vary(c.axis, c.value).Validate()}
			for _, err := range errs {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("error %v does not mention %q", err, c.want)
				}
			}
		})
	}
}

// TestGateRejectsRunsOverAYear: a fluid document whose run would be 1e13 s
// fails in the gate, before Compile could lay out its segment schedule (one
// edge per simulated hour, some 2.8e9), while a run of exactly a year
// passes the gate.
func TestGateRejectsRunsOverAYear(t *testing.T) {
	d := gateDoc()
	d.Window = &config.WindowSpec{RunSeconds: 1e13}
	if _, err := FromDocument(d); err == nil || !strings.Contains(err.Error(), "longer than a year") {
		t.Errorf("a 1e13 s fluid run: error %v, want one saying it is longer than a year", err)
	}
	d.Window.RunSeconds = 365 * 24 * 3600
	if _, err := FromDocument(d); err != nil {
		t.Errorf("a one-year run rejected: %v", err)
	}
}

// twinDoc declares PDM@NA twice, as streams 1 and 2 with different
// population curves — the way config.WorkloadSpec.Stream documents for
// two populations of one app at one data center.
func twinDoc() *config.Document {
	d := engineDoc("")
	d.Name = "twins"
	d.Window.RunSeconds = 600
	d.Workloads[0].Stream = 1
	twin := d.Workloads[0]
	twin.Stream, twin.Users = 2, workload.BusinessDay(60, 0, 1, 10)
	d.Workloads = append(d.Workloads, twin)
	return d
}

// TestTwinWorkloadsShareGauges: two workloads of one app@dc register one
// active and one loggedin series between them. The active gauge counts the
// operations of both in flight, and loggedin is the sum of both curves at
// every snapshot.
func TestTwinWorkloadsShareGauges(t *testing.T) {
	d := twinDoc()
	e, err := FromDocument(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Sim.GaugeValue("PDM:NA:active"), float64(res.Stats.ActiveFlows); got != want || want == 0 {
		t.Errorf("PDM:NA:active gauge %v at the end, want the %v operations in flight", got, want)
	}
	loggedin := res.Series["PDM:NA:loggedin"]
	if loggedin == nil || len(loggedin.V) == 0 {
		t.Fatalf("no PDM:NA:loggedin samples (have %v)", res.SeriesKeys())
	}
	for i, at := range loggedin.T {
		if want := d.Workloads[0].Users.At(at) + d.Workloads[1].Users.At(at); loggedin.V[i] != want {
			t.Errorf("loggedin at %v s = %v, want %v", at, loggedin.V[i], want)
		}
	}
}

// FuzzDocumentNeverPanics feeds arbitrary bytes through the document
// surface: config.Decode, then FromDocument and, when that succeeds,
// Compile. Every input must end in a compiled run or an error, never a
// panic. It stops before time runs, and skips a document whose platform
// would register more than fuzzAgentCap agents, so a fuzzed server or slot
// count cannot make it allocate without bound; the gate's one-year cap
// bounds the run length. The seeds are examples/*.json — the consolidation
// and multimaster case studies at the golden configuration among them, so
// it starts from CAD@NA, daemons and a seven-DC spec — the bad-document
// rows and the twin-workload document.
func FuzzDocumentNeverPanics(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example documents: %v", err)
	}
	for _, path := range examples {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, c := range badDocuments {
		f.Add(c.encode(f))
	}
	var buf bytes.Buffer
	if err := twinDoc().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := config.Decode(bytes.NewReader(raw))
		if err != nil {
			return
		}
		e, err := FromDocument(d)
		if (e == nil) == (err == nil) {
			t.Fatalf("FromDocument returned experiment %v and error %v; want exactly one", e != nil, err)
		}
		if e == nil || fuzzAgents(e.Infra()) > fuzzAgentCap {
			return
		}
		if r, err := e.Compile(); err == nil {
			r.Sim.Shutdown()
		}
	})
}

// fuzzAgentCap bounds the platforms FuzzDocumentNeverPanics compiles.
const fuzzAgentCap = 5000

// fuzzAgents estimates the agents Compile registers for spec: four per
// server, one per client slot, three per data center and two per WAN link.
// It counts in floats, so a fuzzed count cannot overflow it.
func fuzzAgents(spec *topology.InfraSpec) float64 {
	n := 2 * float64(len(spec.WAN))
	for _, dc := range spec.DCs {
		n += 3
		for _, t := range dc.Tiers {
			n += 4 * float64(t.Servers)
		}
	}
	for _, c := range spec.Clients {
		n += float64(c.Slots)
	}
	return n
}
