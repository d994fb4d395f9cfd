package scenarios

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/examples"
	"repro/internal/config"
	"repro/internal/workload"
)

// caseStudies are the two case studies by name: the loader and the
// document it loads.
var caseStudies = map[string]struct {
	load func(CaseConfig) (*CaseStudy, error)
	raw  []byte
}{
	"consolidation": {NewConsolidation, examples.Consolidation},
	"multimaster":   {NewMultiMaster, examples.MultiMaster},
}

// caseDigests pins each case study's digest at four configurations, as the
// Go builders that examples/consolidation.json and examples/multimaster.json
// replaced recorded them; the referee's digests are pinned by
// TestConsolidationPeakWindow and TestMultiMasterPeakWindow, which run it
// anyway. The scales are powers of two or 0.1, where the document's curves
// still meet the builders' bit for bit over these windows.
var caseDigests = []struct {
	cfg                        CaseConfig
	consolidation, multimaster string
}{
	{CaseConfig{Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4},
		"b95cfe8e667651d6137260f7e688462a620417d7966cfbfc973f50404f1741ae",
		"7e49b05f0b4c6ed67c99e3ff1cfa269935ae4ae6a572f9f00053c49c60a5eff2"},
	{CaseConfig{Seed: 3, Scale: 0.05, StartHour: 13, EndHour: 14},
		"369b0e8487fe939ae04461dbf5a236e45d7764fd6a4cd8400b4748d72c127f58",
		"c54f20a8192573b79273a34515016682308e0d7fd0d3694b835520c34e9a6742"},
	{CaseConfig{Step: 0.05, Seed: 7, Scale: 0.1, StartHour: 12, EndHour: 13, DisableClients: true},
		"03fc414ca7cd1e3a41c52b1236120f7544e6108cd248f8cf85d879961ff9de0e",
		"ff935ff96e44b36482c0c1185460141b4ab3b85e213264ce0ebed218a7d77273"},
	{CaseConfig{Seed: 7, Scale: 0.1, StartHour: 13, EndHour: 14, DisableBackground: true},
		"060c774baf1a4cab9332d56f3bb9fd2747fb6c8b65a820574bfcc9af1c3ae2ee",
		"8fe45fc3460c71979c742166ae686c7bb1b3c66ef55be2d96d35ff9e308ff663"},
}

// checkDigest runs cs and compares its digest with want.
func checkDigest(t *testing.T, cs *CaseStudy, want string) {
	t.Helper()
	cs.Run()
	cs.Sim.Shutdown()
	if got := cs.Result.Digest(); got != want {
		t.Errorf("%s ran to digest %s (%d ops), want %s", cs.Label(), got, cs.Result.Stats.CompletedOps, want)
	}
}

// TestCaseStudiesAreDocuments: each case study, loaded from its document,
// runs to the pinned digests of the builder it replaced, with clients and
// daemons, without clients and without daemons.
func TestCaseStudiesAreDocuments(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study runs skipped in -short")
	}
	for _, c := range caseDigests {
		for _, s := range [][2]string{{"consolidation", c.consolidation}, {"multimaster", c.multimaster}} {
			t.Run(fmt.Sprintf("%s/seed%d/%d-%dh", s[0], c.cfg.Seed, c.cfg.StartHour, c.cfg.EndHour), func(t *testing.T) {
				cs, err := caseStudies[s[0]].load(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkDigest(t, cs, s[1])
			})
		}
	}
}

// TestCaseDocumentsReencode: each checked-in case-study document decodes
// and encodes back to its own bytes, so a change of the document format
// shows as a diff of examples/, not as a silent reinterpretation.
func TestCaseDocumentsReencode(t *testing.T) {
	for study, c := range caseStudies {
		d, err := config.Decode(bytes.NewReader(c.raw))
		if err != nil {
			t.Fatalf("%s: %v", study, err)
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), c.raw) {
			t.Errorf("examples/%s.json does not re-encode to its own bytes", study)
		}
	}
}

// TestScaledDocumentMatchesBuilder: scaleCase at 0.1 makes of each scale-1
// document the one the Go builder wrote at scale 0.1
// (testdata/<study>_scale0.1.json, at seed 7, 3-4 h GMT): every field
// equal, except that the users and growth curves may differ in their last
// bits. The builder took 5% of the scaled peak, (p·k)·0.05; the document
// scales 5% of the peak, (p·0.05)·k, which at a scale that is not a power
// of two can round differently.
func TestScaledDocumentMatchesBuilder(t *testing.T) {
	for study, c := range caseStudies {
		t.Run(study, func(t *testing.T) {
			want, err := config.Load(filepath.Join("testdata", study+"_scale0.1.json"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeCase(c.raw, &CaseConfig{Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Workloads) != len(want.Workloads) || got.Daemons == nil || want.Daemons == nil {
				t.Fatalf("%d workloads, want %d; daemons %v, want %v",
					len(got.Workloads), len(want.Workloads), got.Daemons != nil, want.Daemons != nil)
			}
			// Compare the curves to a relative 1e-15, then set them equal
			// for the exact comparison of everything else.
			inexact := 0
			near := func(what string, g *workload.Curve, w workload.Curve) {
				for h := range w {
					if g[h] != w[h] {
						inexact++
					}
					if math.Abs(g[h]-w[h]) > 1e-15*math.Abs(w[h]) {
						t.Errorf("%s at %d h = %v, the builder's %v", what, h, g[h], w[h])
					}
				}
				*g = w
			}
			for i, w := range want.Workloads {
				g := &got.Workloads[i]
				near(g.App+"@"+g.DC+" users", &g.Users, w.Users)
			}
			for dc, w := range want.Daemons.GrowthMBh {
				g := got.Daemons.GrowthMBh[dc]
				near(dc+" growth", &g, w)
				got.Daemons.GrowthMBh[dc] = g
			}
			t.Logf("%d curve points differ from the builder's in their last bits", inexact)
			if !reflect.DeepEqual(got, want) {
				t.Error("the scaled document differs from the builder's outside its curves")
			}
		})
	}
}
