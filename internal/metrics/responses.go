package metrics

import (
	"fmt"
	"sort"
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
		s = &Series{Name: op + "@" + dc}
		r.byKey[k] = s
	}
	s.Add(completed, dur)
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

// HourlyMeans returns per-hour mean response times for op at dc, for the
// response-time-by-hour figures (6-15..6-20).
func (r *Responses) HourlyMeans(op, dc string, hours int) ([]float64, error) {
	s := r.Series(op, dc)
	if s == nil {
		return nil, fmt.Errorf("metrics: no responses recorded for %s at %s", op, dc)
	}
	return s.Hourly(hours), nil
}
