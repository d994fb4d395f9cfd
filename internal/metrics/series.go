// Package metrics implements the measurement side of GDISim: the collector
// snapshots (§4.3.1), time series of hardware utilization, response-time
// tracking per operation and data center, and the statistics the thesis
// reports — steady-state mean and standard deviation (Eqs. 5.1-5.4) and the
// root-mean-square error between two series (Eq. 5.5).
//
// A Collector samples every probe at the same instants and stores them once:
// its series share one time axis, each T a read-only view of it, and a run
// of known length reserves the axis and every series up front
// (Collector.Reserve), so its snapshots allocate nothing.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Series is a time series of (simulated-seconds, value) samples in
// non-decreasing time order. A series a Collector records is not the
// caller's to extend: its T is a read-only view of the collector's shared
// time axis, so do not Add to it or write into T.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// Add appends a sample. Samples must arrive in non-decreasing time order;
// out-of-order samples panic because they indicate a collector bug.
//
// A series that Add fills grows T and V together, in one block that
// doubles: T is its first half and V its second, each capped at its half,
// so an append to either from outside reallocates instead of writing into
// the other. A series of n samples so costs at most ⌈log₂ n⌉+1
// allocations, where two slices appended apart cost twice that or more. The
// first block holds minSamples samples, and every block a power of two
// times that — also the one after a first block reserved at another size
// (Responses.Expect), so a grown series never holds more room than doubling
// from minSamples would have given it.
func (s *Series) Add(t, v float64) {
	n := len(s.T)
	if n > 0 && t < s.T[n-1] {
		panic(fmt.Sprintf("metrics: out-of-order sample %v after %v on %q", t, s.T[n-1], s.Name))
	}
	if len(s.V) == n && (n == cap(s.T) || n == cap(s.V)) {
		c := minSamples
		for c <= n {
			c *= 2
		}
		block := make([]float64, 2*c)
		s.T = block[:copy(block, s.T):c]
		s.V = block[c : c+copy(block[c:], s.V) : 2*c]
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// minSamples is the capacity of a series' first block, 128 bytes: the
// samples a short run's response series mostly stay within.
const minSamples = 8

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Window returns the values with t0 <= t < t1.
func (s *Series) Window(t0, t1 float64) []float64 {
	lo := sort.SearchFloat64s(s.T, t0)
	hi := sort.SearchFloat64s(s.T, t1)
	return s.V[lo:hi]
}

// Mean returns the arithmetic mean of the samples in [t0, t1), as in
// Eq. 5.1/5.3. It returns 0 for an empty window.
func (s *Series) Mean(t0, t1 float64) float64 {
	return Mean(s.Window(t0, t1))
}

// Std returns the population standard deviation of the samples in [t0, t1),
// as in Eq. 5.2/5.4.
func (s *Series) Std(t0, t1 float64) float64 {
	return Std(s.Window(t0, t1))
}

// Max returns the maximum value and its time over the whole series.
// ok is false for an empty series.
func (s *Series) Max() (t, v float64, ok bool) {
	if len(s.V) == 0 {
		return 0, 0, false
	}
	t, v = s.T[0], s.V[0]
	for i := 1; i < len(s.V); i++ {
		if s.V[i] > v {
			t, v = s.T[i], s.V[i]
		}
	}
	return t, v, true
}

// At returns the last sample value at or before time t (zero-order hold),
// or 0 when t precedes the first sample.
func (s *Series) At(t float64) float64 {
	i := sort.SearchFloat64s(s.T, t)
	if i < len(s.T) && s.T[i] == t {
		return s.V[i]
	}
	if i == 0 {
		return 0
	}
	return s.V[i-1]
}

// Hourly aggregates the series into per-hour means over [0, hours) hours,
// matching the hour-of-day plots in Chapters 6-7.
func (s *Series) Hourly(hours int) []float64 {
	out := make([]float64, hours)
	for h := 0; h < hours; h++ {
		out[h] = s.Mean(float64(h)*3600, float64(h+1)*3600)
	}
	return out
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Std returns the population standard deviation of vs (0 for empty input).
func Std(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := Mean(vs)
	ss := 0.0
	for _, v := range vs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vs)))
}

// RMSE computes the root-mean-square error between a measured and a
// predicted series (Eq. 5.5), comparing the predicted value at each measured
// sample instant using zero-order hold. It errors on an empty reference.
func RMSE(reference, predicted *Series) (float64, error) {
	if reference.Len() == 0 {
		return 0, fmt.Errorf("metrics: RMSE reference series %q is empty", reference.Name)
	}
	ss := 0.0
	for i, t := range reference.T {
		d := reference.V[i] - predicted.At(t)
		ss += d * d
	}
	return math.Sqrt(ss / float64(reference.Len())), nil
}

// RMSEValues computes RMSE between two equal-length sample vectors.
func RMSEValues(a, b []float64) (float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, fmt.Errorf("metrics: RMSEValues needs equal non-empty lengths, got %d and %d", len(a), len(b))
	}
	ss := 0.0
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a))), nil
}
