package scenarios

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// caseStudies are the two case studies by name: their definition and the
// Go builder whose run a document must reproduce.
var caseStudies = map[string]struct {
	study func() (caseStudy, error)
	build func(CaseConfig) (*CaseStudy, error)
}{
	"consolidation": {func() (caseStudy, error) { return consolidationStudy(), nil }, NewConsolidation},
	"multimaster":   {multiMasterStudy, NewMultiMaster},
}

// caseDocument writes a case study as a scenario document from the
// definition its builder reads: caseInfraSpec for the platform; per client
// DC, in sorted order, the caseApps workloads on the DC's business-day
// curves; the growth curves, masters and headroom for the daemons; the
// access matrix.
func caseDocument(t testing.TB, study string, cfg CaseConfig) *config.Document {
	t.Helper()
	s, err := caseStudies[study].study()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	spec, err := caseInfraSpec(cfg, s.traits)
	if err != nil {
		t.Fatal(err)
	}
	d := &config.Document{
		Name: s.name, Seed: cfg.Seed, Step: cfg.Step,
		Window:         &config.WindowSpec{StartHour: cfg.StartHour, EndHour: cfg.EndHour},
		Infrastructure: spec,
		AccessMatrix:   s.apm,
		Daemons: &config.DaemonsSpec{
			Masters:       s.masters,
			GrowthMBh:     map[string]workload.Curve{},
			IndexHeadroom: s.headroom,
		},
	}
	for _, dc := range slices.Sorted(maps.Keys(s.traits)) {
		tr := s.traits[dc]
		if tr.GrowthPeakMBh > 0 {
			d.Daemons.GrowthMBh[dc] = tr.day(tr.GrowthPeakMBh, cfg.Scale)
		}
		if tr.ClientSlots == 0 {
			continue
		}
		for _, a := range caseApps {
			if peak := a.peak(tr); peak > 0 {
				d.Workloads = append(d.Workloads, config.WorkloadSpec{
					App: a.app, DC: dc, Ops: a.set, Users: tr.day(peak, cfg.Scale), OpsPerUserHour: a.rate,
				})
			}
		}
	}
	return d
}

// runDocument encodes d, decodes it again and runs what FromDocument makes
// of it.
func runDocument(t testing.TB, d *config.Document) (raw []byte, res *experiment.Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := config.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := experiment.FromDocument(back)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = e.Run(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestCaseStudiesAreDocuments: each case study, written as a document and
// passed through JSON, runs to the digest of its Go builder, at the golden
// configuration (seed 7, scale 0.1, 3-4 h GMT) and at seed 3, scale 0.05
// over 13-14 h. At the golden configuration the document is also the one
// checked in as examples/<study>.json (rewritten under -update), a seed of
// the document fuzzer.
func TestCaseStudiesAreDocuments(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study runs skipped in -short")
	}
	configs := []CaseConfig{
		{Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4},
		{Seed: 3, Scale: 0.05, StartHour: 13, EndHour: 14},
	}
	for _, study := range []string{"consolidation", "multimaster"} {
		for i, cfg := range configs {
			t.Run(fmt.Sprintf("%s/seed%d", study, cfg.Seed), func(t *testing.T) {
				raw, res := runDocument(t, caseDocument(t, study, cfg))
				if i == 0 {
					checkExampleDocument(t, study, raw)
				}
				cs, err := caseStudies[study].build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cs.Run()
				cs.Sim.Shutdown()
				if got, want := res.Digest(), cs.Result.Digest(); got != want {
					t.Errorf("the document ran to digest %s (%d ops), the builder to %s (%d ops)",
						got, res.Stats.CompletedOps, want, cs.Result.Stats.CompletedOps)
				}
			})
		}
	}
}

// checkExampleDocument compares raw with examples/<study>.json, or writes
// it there under -update.
func checkExampleDocument(t *testing.T, study string, raw []byte) {
	t.Helper()
	path := filepath.Join("..", "..", "examples", study+".json")
	if *update {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("%s is not the %s document at the golden configuration (run with -update to rewrite it)", path, study)
	}
}
