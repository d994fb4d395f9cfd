package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
)

// BenchmarkShardGrain is the measurement behind core's shardGrain constant
// (DESIGN.md, "Grain gate"): the same dense platform — two data centers on
// two shards, every agent holding an event on every tick — run with every
// span forked onto dispatch.Sharded's workers and with every window inline,
// at growing populations. Spans here run collector boundary to collector
// boundary (99 ticks), so the gate's work estimate is 99 x agents; ns/window
// of the two legs cross where a span carries enough agent advances to pay
// for its barrier, and the constant sits on the paying side of that
// crossing on the harness host.
func BenchmarkShardGrain(b *testing.B) {
	const seconds = 4 // 400 ticks of 10 ms
	for _, agents := range []int{16, 32, 64, 128, 256, 512, 1024} {
		for _, leg := range []struct {
			name  string
			grain int
		}{{"forked", 0}, {"inline", math.MaxInt}} {
			b.Run(fmt.Sprintf("agents-%d/%s", agents, leg.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.DenseRing(dispatch.NewSharded(2), leg.grain, 2, agents/2, seconds)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(seconds*100), "ns/window")
			})
		}
	}
}
