package config

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

func sampleDoc() *Document {
	return &Document{
		Name: "two-dc",
		Infrastructure: topology.InfraSpec{
			DCs: []topology.DCSpec{{
				Name: "NA", SwitchGbps: 20,
				ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
				Tiers: []topology.TierSpec{{
					Name: "app", Servers: 2,
					Server: topology.ServerSpec{
						CPU:     hardware.CPUSpec{Sockets: 1, Cores: 8, GHz: 2.5},
						MemGB:   32,
						NICGbps: 10,
						RAID: &hardware.RAIDSpec{
							Disks: 2, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150},
							CtrlGbps: 4,
						},
					},
					LocalLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45},
				}},
			}},
			Clients: map[string]topology.ClientSpec{
				"NA": {Slots: 16, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
			},
		},
		Workloads: []WorkloadSpec{{
			App: "CAD", DC: "NA",
			Users:          workload.BusinessDay(100, 13, 22, 5),
			OpsPerUserHour: 4,
			ThinBelow:      0.2,
			Fluid:          &FluidSpec{Above: 0.8, RhoMax: 0.85},
		}},
		AccessMatrix: workload.SingleMaster([]string{"NA"}, "NA"),
	}
}

func TestRoundTrip(t *testing.T) {
	doc := sampleDoc()
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != doc.Name {
		t.Errorf("name = %q", back.Name)
	}
	if len(back.Infrastructure.DCs) != 1 || back.Infrastructure.DCs[0].Tiers[0].Servers != 2 {
		t.Error("infrastructure did not round-trip")
	}
	if back.Workloads[0].Users.Peak() != 100 {
		t.Errorf("workload curve peak = %v", back.Workloads[0].Users.Peak())
	}
	if back.Workloads[0].ThinBelow != 0.2 {
		t.Errorf("thinBelow = %v, want 0.2", back.Workloads[0].ThinBelow)
	}
	if f := back.Workloads[0].Fluid; f == nil || f.Above != 0.8 || f.RhoMax != 0.85 {
		t.Errorf("fluid spec did not round-trip: %+v", f)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"name":"x","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// A file holds one document: whatever follows it, even a second document, is
// an error naming where the first one ended — not silently dropped. Trailing
// whitespace is fine.
func TestDecodeRejectsTrailingData(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc := bytes.TrimRight(raw, " \t\r\n")
	if _, err := Decode(bytes.NewReader(append(slices.Clip(doc), " \n\t\n"...))); err != nil {
		t.Fatalf("document with trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{`{"name": 3} garbage`, "\n" + string(doc), " garbage", "]"} {
		_, err := Decode(bytes.NewReader(append(slices.Clip(doc), tail...)))
		if err == nil {
			t.Errorf("trailing %q accepted", tail)
			continue
		}
		if want := fmt.Sprintf("offset %d", len(doc)); !strings.Contains(err.Error(), want) {
			t.Errorf("trailing %q: error %q does not name %s", tail, err, want)
		}
	}
}

func TestSaveAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	doc := sampleDoc()
	if err := doc.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != doc.Name {
		t.Errorf("loaded name = %q", back.Name)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestExportSeriesCSV(t *testing.T) {
	s1 := &metrics.Series{Name: "a"}
	s1.Add(1, 0.5)
	s1.Add(2, 0.75)
	s2 := &metrics.Series{Name: "b"}
	s2.Add(1.5, 10)
	var buf bytes.Buffer
	err := ExportSeriesCSV(&buf, map[string]*metrics.Series{"cpu": s1, "link": s2, "nil": nil})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 samples
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "series,seconds,value" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "cpu,1.000,0.5") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestCollectorSeries(t *testing.T) {
	col := metrics.NewCollector()
	col.Register(metrics.Probe{Key: "x", Sample: metrics.SampleFunc(func(float64) float64 { return 1 })})
	col.Snapshot(10)
	m := CollectorSeries(col)
	if m["x"] == nil || m["x"].Len() != 1 {
		t.Error("collector series not exported")
	}
}
