package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// digestResult builds a Result holding n response-time samples split over
// two populations and n collector samples split over two series.
func digestResult(n int) *Result {
	res := &Result{
		Seed:      42,
		Stats:     core.RunStats{CompletedOps: uint64(n), Ticks: 1234, Seconds: 12.34},
		Series:    map[string]*metrics.Series{"cpu:app": {}, "net:wan": {}},
		Responses: metrics.NewResponses(),
	}
	for i := 0; i < n/2; i++ {
		t := float64(i) * 0.01
		res.Responses.Record("LOGIN", "NA", t, 0.1+float64(i%7)/3)
		res.Responses.Record("SAVE", "EU", t, 0.2+float64(i%5)/7)
		res.Series["cpu:app"].Add(t, float64(i%11)/13)
		res.Series["net:wan"].Add(t, float64(i%3)/17)
	}
	return res
}

// refDigest is Digest written the plain way, one hash write per number: the
// byte stream the buffered digester must reproduce.
func refDigest(res *Result) string {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	series := func(s *metrics.Series) {
		u64(uint64(s.Len()))
		for i := range s.V {
			u64(math.Float64bits(s.T[i]))
			u64(math.Float64bits(s.V[i]))
		}
	}
	u64(res.Seed)
	u64(res.Stats.CompletedOps)
	u64(uint64(res.Stats.Ticks))
	u64(math.Float64bits(res.Stats.Seconds))
	for _, k := range res.Responses.Keys() {
		io.WriteString(h, k.Op+"@"+k.DC)
		series(res.Responses.Series(k.Op, k.DC))
	}
	for _, k := range res.SeriesKeys() {
		io.WriteString(h, k)
		series(res.Series[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digest hashes the same bytes as one write per number, and its allocations
// do not grow with the sample count: every number is encoded into one
// reusable buffer.
func TestDigestAllocsDoNotGrowWithSamples(t *testing.T) {
	const maxAllocs = 16
	for _, n := range []int{10_000, 40_000} {
		res := digestResult(n)
		if got, want := res.Digest(), refDigest(res); got != want {
			t.Fatalf("%d samples: digest %s, one write per number %s", n, got, want)
		}
		if a := testing.AllocsPerRun(5, func() { res.Digest() }); a > maxAllocs {
			t.Errorf("%d samples: Digest allocates %v times, want at most %d", n, a, maxAllocs)
		}
	}
}
