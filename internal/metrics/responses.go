package metrics

import (
	"slices"
	"sort"

	"repro/internal/names"
)

// ResponseKey identifies a response-time population: one operation type
// observed from one data center, e.g. {"CAD OPEN", "AUS"}.
type ResponseKey struct {
	Op string
	DC string
}

// Responses accumulates operation response times, the simulator's primary
// user-experience output (§3.2.1): "estimates of the response time for each
// operation type and software application at each location".
type Responses struct {
	byKey map[ResponseKey]*Series
	names names.Slab // the series names, "<op>@<dc>", cut as they appear
	// headers is the slab Reserve made, which the series headers are taken
	// from as their first samples arrive.
	headers []Series
	// expected is the table Expect took, and blocks the slab its series'
	// first blocks are carved from, in table order, at their first samples.
	expected []Expected
	blocks   []float64
}

// Expected is a population's expected sample count: the room its series'
// first block holds.
type Expected struct {
	Key     ResponseKey
	Samples int
}

// NewResponses returns an empty response tracker.
func NewResponses() *Responses {
	return &Responses{byKey: make(map[ResponseKey]*Series)}
}

// Record stores one completed operation: completed is the simulated
// completion instant in seconds, dur the response time in seconds.
func (r *Responses) Record(op, dc string, completed, dur float64) {
	k := ResponseKey{Op: op, DC: dc}
	s := r.byKey[k]
	if s == nil {
		name := r.names.Str(op).Str("@").Str(dc).Cut()
		if len(r.headers) < cap(r.headers) {
			r.headers = append(r.headers, Series{Name: name})
			s = &r.headers[len(r.headers)-1]
		} else {
			s = &Series{Name: name}
		}
		if block := r.block(k); block != nil {
			n := len(block) / 2
			s.T, s.V = block[:0:n], block[n:n:2*n]
		}
		r.byKey[k] = s
	}
	s.Add(completed, dur)
}

// Reserve makes room for n more series in one slab of headers, so the
// first samples of up to n populations allocate no header of their own; a
// caller that knows which operations it launches where (experiment.Compile
// counts its workloads' catalogs) reserves them once. A series still stays
// absent until its first sample, and one past the reservation gets a
// header of its own.
func (r *Responses) Reserve(n int) {
	if n > cap(r.headers)-len(r.headers) {
		r.headers = make([]Series, 0, n)
	}
}

// Expect sizes the first blocks of the populations in exp, which a caller
// that knows what it launches over a run (experiment's Execute counts each
// workload's expected launches) states once: the series of exp[i].Key
// starts with room for exp[i].Samples samples, carved from one slab made
// here for the whole table, and grows as any series does past it. A series
// still appears only at its first sample; a key listed twice gets the room
// of both. Expect takes exp as its own table; a later Expect replaces the
// table for the series not sampled yet. Trim gives back the room a finished
// run did not use.
func (r *Responses) Expect(exp []Expected) {
	kept := exp[:0]
	total := 0
	for _, e := range exp {
		if e.Samples <= 0 {
			continue
		}
		total += e.Samples
		if i := slices.IndexFunc(kept, func(k Expected) bool { return k.Key == e.Key }); i >= 0 {
			kept[i].Samples += e.Samples
			continue
		}
		kept = append(kept, e)
	}
	r.expected, r.blocks = kept, nil
	if total > 0 {
		r.blocks = make([]float64, 2*total)
	}
}

// block returns the first block Expect reserved for k — T's room, then V's
// — or nil when it reserved none.
func (r *Responses) block(k ResponseKey) []float64 {
	off := 0
	for _, e := range r.expected {
		n := 2 * e.Samples
		if e.Key == k {
			return r.blocks[off : off+n : off+n]
		}
		off += n
	}
	return nil
}

// Trim moves the series still in the blocks Expect reserved into one block
// holding exactly their samples, and drops the reservation, so a finished
// run keeps none of the room its series did not use; a series that outgrew
// its reserved block keeps the block it grew into. Later samples grow a
// trimmed series as any other.
func (r *Responses) Trim() {
	if r.blocks == nil {
		return
	}
	total := 0
	r.inBlocks(func(s *Series) { total += len(s.T) })
	block := make([]float64, 2*total)
	r.inBlocks(func(s *Series) {
		n := len(s.T)
		t, v := block[:n:n], block[n:2*n:2*n]
		copy(t, s.T)
		copy(v, s.V)
		s.T, s.V, block = t, v, block[2*n:]
	})
	r.expected, r.blocks = nil, nil
}

// inBlocks calls fn with every series that still records into the first
// block Expect reserved for it, in table order.
func (r *Responses) inBlocks(fn func(*Series)) {
	off := 0
	for _, e := range r.expected {
		if s := r.byKey[e.Key]; s != nil && len(s.T) > 0 && &s.T[0] == &r.blocks[off] {
			fn(s)
		}
		off += 2 * e.Samples
	}
}

// Series returns the response-time series for an operation at a data
// center, or nil when none was recorded.
func (r *Responses) Series(op, dc string) *Series {
	return r.byKey[ResponseKey{Op: op, DC: dc}]
}

// Mean returns the mean response time of op at dc over [t0, t1) seconds.
// ok is false when no completions fall in the window.
func (r *Responses) Mean(op, dc string, t0, t1 float64) (mean float64, ok bool) {
	s := r.Series(op, dc)
	if s == nil {
		return 0, false
	}
	w := s.Window(t0, t1)
	if len(w) == 0 {
		return 0, false
	}
	return Mean(w), true
}

// MeanAll returns the mean response time of op at dc over the whole run.
func (r *Responses) MeanAll(op, dc string) (float64, bool) {
	s := r.Series(op, dc)
	if s == nil || s.Len() == 0 {
		return 0, false
	}
	return Mean(s.V), true
}

// Max returns the maximum response time of op at dc over the whole run.
func (r *Responses) Max(op, dc string) (float64, bool) {
	s := r.Series(op, dc)
	if s == nil || s.Len() == 0 {
		return 0, false
	}
	_, v, _ := s.Max()
	return v, true
}

// Count returns the number of completions recorded for op at dc.
func (r *Responses) Count(op, dc string) int {
	s := r.Series(op, dc)
	if s == nil {
		return 0
	}
	return s.Len()
}

// Keys returns all recorded (op, dc) pairs, sorted for stable reports.
func (r *Responses) Keys() []ResponseKey {
	keys := make([]ResponseKey, 0, len(r.byKey))
	for k := range r.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].DC != keys[j].DC {
			return keys[i].DC < keys[j].DC
		}
		return keys[i].Op < keys[j].Op
	})
	return keys
}
