package metrics

import (
	"math"
	"testing"
)

// TestResponseSeriesAllocs: a response series grows its time stamps and
// values in one block that doubles, so n samples cost the series itself and
// one allocation per doubling — at most ⌈log₂ n⌉+2. The name and the map
// entry are shared by all series of a tracker and amortise to nothing per
// series.
func TestResponseSeriesAllocs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 9, 100, 257, 1000, 4096, 10000} {
		r := NewResponses()
		r.Record("warm", "NA", 0, 1)
		key := 0
		keys := make([]string, 200)
		for i := range keys {
			keys[i] = "op" + string(rune('A'+i%26)) + string(rune('a'+i/26))
		}
		got := testing.AllocsPerRun(100, func() {
			op := keys[key]
			key++
			for i := range n {
				r.Record(op, "NA", float64(i), 1)
			}
		})
		if bound := math.Ceil(math.Log2(float64(n))) + 2; got > bound {
			t.Errorf("a response series of %d samples costs %v allocations, want at most %v", n, got, bound)
		}
	}
}

// TestSeriesBlockHalvesAreCapped: T and V share one block, each capped at
// its half, so an append to T from outside never writes into V.
func TestSeriesBlockHalvesAreCapped(t *testing.T) {
	var s Series
	for i := range 5 {
		s.Add(float64(i), float64(10+i))
	}
	for len(s.T) < cap(s.T) {
		s.Add(float64(len(s.T)), float64(10+len(s.T)))
	}
	v := append([]float64(nil), s.V...)
	_ = append(s.T, -1) // reallocates: T's capacity ends at V
	for i := range v {
		if s.V[i] != v[i] {
			t.Fatalf("an append to T wrote into V: V[%d] = %v, want %v", i, s.V[i], v[i])
		}
	}
	if &s.T[:cap(s.T)][cap(s.T)-1] == &s.V[0] {
		t.Fatal("T's capacity runs into V")
	}
}

// TestResponsesReserveHeaders: after Reserve(n) the first n series take
// their headers from one slab, in the order their first samples arrive; no
// series exists before its first sample, and one past the reservation
// still records, under a header of its own.
func TestResponsesReserveHeaders(t *testing.T) {
	r := NewResponses()
	r.Reserve(3)
	if r.Series("A", "NA") != nil {
		t.Fatal("a reserved series exists before its first sample")
	}
	for i, op := range []string{"B", "A", "C"} {
		r.Record(op, "NA", float64(i), 1)
		if s := r.Series(op, "NA"); s != &r.headers[i] || s.Name != op+"@NA" {
			t.Fatalf("series %s is not header %d of the reserved slab", op, i)
		}
	}
	r.Record("D", "NA", 3, 2)
	if s := r.Series("D", "NA"); s == nil || s.Len() != 1 || len(r.headers) != 3 {
		t.Fatal("a series past the reservation did not record on a header of its own")
	}
	// Eight first samples with and without the reservation: the slab
	// replaces eight headers.
	first := func(reserve int) float64 {
		return testing.AllocsPerRun(10, func() {
			r := NewResponses()
			r.Reserve(reserve)
			for _, op := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
				r.Record(op, "EU", 0, 1)
			}
		})
	}
	if apart, slab := first(0), first(8); apart-slab != 7 {
		t.Errorf("first samples of 8 series: %v allocations with their headers reserved, %v without; want 7 fewer", slab, apart)
	}
}

// TestExpectedSeriesSizing: a series Expect sized records up to its
// reserved count into its reserved block, allocating nothing; one sample
// past it costs one block, no larger than what doubling from the first
// eight samples holds at that count; and once Trim has run, every series
// retains at most what doubling would — exactly its samples when it stayed
// in its reserved block.
func TestExpectedSeriesSizing(t *testing.T) {
	doubled := func(n int) int { // the room doubling gives n samples
		var s Series
		for i := range n {
			s.Add(float64(i), 1)
		}
		return cap(s.T)
	}
	for _, n := range []int{1, 7, 8, 9, 20, 100, 1000} {
		// record makes a tracker that expects n samples of A, and records
		// k of them.
		record := func(k int) *Responses {
			r := NewResponses()
			r.Reserve(1)
			r.Expect([]Expected{{Key: ResponseKey{"A", "NA"}, Samples: n}})
			for i := range k {
				r.Record("A", "NA", float64(i), 1)
			}
			return r
		}
		allocs := func(k int) float64 { return testing.AllocsPerRun(10, func() { record(k) }) }
		first := allocs(1)
		if got := allocs(n) - first; got != 0 {
			t.Errorf("expecting %d samples: samples 2 to %d cost %v allocations, want 0", n, n, got)
		}
		if got := allocs(n+1) - first; got != 1 {
			t.Errorf("expecting %d samples: one sample past them costs %v allocations, want 1", n, got)
		}
		over := record(n + 1)
		if s := over.Series("A", "NA"); cap(s.T) > doubled(n+1) || cap(s.V) != cap(s.T) {
			t.Errorf("expecting %d samples: %d samples grew into room for %d/%d, doubling gives %d",
				n, n+1, cap(s.T), cap(s.V), doubled(n+1))
		}
		over.Trim()
		if s := over.Series("A", "NA"); s.Len() != n+1 || cap(s.T) > doubled(n+1) {
			t.Errorf("expecting %d samples: after Trim %d samples hold room for %d", n, s.Len(), cap(s.T))
		}
		for _, k := range []int{1, (n + 1) / 2, n} {
			r := record(k)
			r.Trim()
			s := r.Series("A", "NA")
			if s.Len() != k || cap(s.T) != k || cap(s.V) != k || s.T[k-1] != float64(k-1) || s.V[k-1] != 1 {
				t.Errorf("expecting %d samples, %d recorded: Trim left %d samples in room for %d/%d",
					n, k, s.Len(), cap(s.T), cap(s.V))
			}
			if r.Series("B", "NA") != nil {
				t.Error("a series appeared without a sample")
			}
		}
	}
}
