package experiment

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkSweepThroughput measures sweep points per second at 1, 4 and
// NumCPU workers over the small PDM experiment (an 8-point grid per
// iteration). CI runs one iteration as a smoke pass and posts it to the
// job summary; the committed trajectory is bench/history.json's campaign
// rows.
func BenchmarkSweepThroughput(b *testing.B) {
	counts := []int{1, 4, runtime.NumCPU()}
	if counts[2] == counts[1] || counts[2] == counts[0] {
		counts = counts[:2]
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			points := 0
			for i := 0; i < b.N; i++ {
				res, err := eightPointSweep().Run(workers)
				if err != nil {
					b.Fatal(err)
				}
				points += len(res.Points)
			}
			b.ReportMetric(float64(points)/time.Since(start).Seconds(), "points/sec")
		})
	}
}
