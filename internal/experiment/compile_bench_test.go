package experiment

import (
	"path/filepath"
	"testing"

	"repro/internal/config"
)

// BenchmarkCompileDocument times what a campaign point pays after its
// document is decoded: FromDocument plus Compile of examples/chaos.json —
// three data centers, nine servers, two PDM workloads, a fault schedule —
// building the platform, its operation catalogs and its probes. Decoding is
// done once, outside the loop. Run it with -benchmem: allocs/op counts the
// heap objects one point's set-up costs.
func BenchmarkCompileDocument(b *testing.B) {
	doc, err := config.Load(filepath.Join("..", "..", "examples", "chaos.json"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		e, err := FromDocument(doc)
		if err != nil {
			b.Fatal(err)
		}
		r, err := e.Compile()
		if err != nil {
			b.Fatal(err)
		}
		r.Sim.Shutdown()
	}
}
