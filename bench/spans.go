package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval recorded around a public call into the
// simulator. Spans of one iteration share its id; parent is the index of
// the enclosing span in the recorder, -1 for the iteration root.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int
	iteration  int
}

// spanRecorder keeps spans in memory for the whole run; nothing is written
// until the benchmark ends. A nil recorder records nothing, which is how an
// untraced iteration runs the same code without the bookkeeping.
type spanRecorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	iter  int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// begin opens a span under the innermost open one.
func (r *spanRecorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent, iteration: r.iter})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *spanRecorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].end = time.Since(r.epoch)
}

// mark returns the recorder's position, for rollback.
func (r *spanRecorder) mark() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// rollback forgets every span recorded since mark, open ones included (a
// panic leaves them open).
func (r *spanRecorder) rollback(mark int) {
	if r == nil {
		return
	}
	r.spans = r.spans[:mark]
	for n := len(r.open); n > 0 && r.open[n-1] >= mark; n-- {
		r.open = r.open[:n-1]
	}
}

// nextIteration closes the books on the current iteration id.
func (r *spanRecorder) nextIteration() {
	if r != nil {
		r.iter++
	}
}

// spanSummary is one span name's totals over a run.
type spanSummary struct {
	name            string
	count           int
	totalMs, selfMs float64 // self: duration minus the part child spans cover
}

// summary totals the spans by name, in order of first appearance.
func (r *spanRecorder) summary() []spanSummary {
	if r == nil {
		return nil
	}
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out []spanSummary
	index := map[string]int{}
	for i, s := range r.spans {
		j, ok := index[s.name]
		if !ok {
			j = len(out)
			index[s.name] = j
			out = append(out, spanSummary{name: s.name})
		}
		out[j].count++
		out[j].totalMs += float64(s.end-s.start) / 1e6
		out[j].selfMs += float64(s.end-s.start-child[i]) / 1e6
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// events, microseconds), loadable in chrome://tracing or Perfetto.
func (r *spanRecorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		parent := ""
		if s.parent >= 0 {
			parent = r.spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"iteration": s.iteration, "parent": parent},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
