package workload

import (
	"fmt"
	"math"

	"repro/internal/cascade"
	"repro/internal/core"
)

// Series is a sequential concatenation of operations preserving order
// (§5.2.2) — the validation experiments launch Light, Average and Heavy
// series at fixed intervals.
type Series struct {
	Name string
	Ops  []cascade.Op
}

// Duration sums the per-operation targets; exposed for experiment sizing.
func (s Series) Duration(estimate func(cascade.Op) float64) float64 {
	total := 0.0
	for _, op := range s.Ops {
		total += estimate(op)
	}
	return total
}

// SeriesLauncher starts one series every Interval seconds, from FirstAt
// until Until (exclusive; 0 means forever). Each series gets a fresh
// binding (client slot and server choices), runs its operations
// back-to-back and maintains GaugeKey as the number of series in flight —
// the "concurrent clients" metric of Fig. 5-6.
type SeriesLauncher struct {
	Series   Series
	Interval float64
	FirstAt  float64
	Until    float64
	GaugeKey string
	// NewBinding supplies the per-series binding (client slot, DCs).
	NewBinding func() *cascade.Binding
	// OnSeriesDone, when non-nil, is invoked when a whole series ends.
	OnSeriesDone func(now float64)

	next        float64
	gauge       core.Gauge
	scratch     cascade.Scratch
	initialized bool
}

// Poll launches due series. It implements core.Source.
func (l *SeriesLauncher) Poll(s *core.Simulation, now float64) {
	if !l.initialized {
		if l.Interval <= 0 {
			panic(fmt.Sprintf("workload: series %s needs a positive interval", l.Series.Name))
		}
		if len(l.Series.Ops) == 0 {
			panic(fmt.Sprintf("workload: series %s has no operations", l.Series.Name))
		}
		l.next = l.FirstAt
		l.gauge = s.GaugeHandle(l.GaugeKey)
		l.scratch.Share(cascade.NewPrograms(l.Series.Ops))
		l.initialized = true
	}
	for now >= l.next && (l.Until <= 0 || l.next < l.Until) {
		l.launch(s)
		l.next += l.Interval
	}
}

// NextPoll reports the next scheduled launch instant; polls before it do
// nothing (the chained per-series operations advance through completion
// callbacks, not polls). An exhausted launcher reports +Inf.
func (l *SeriesLauncher) NextPoll(now float64) float64 {
	if !l.initialized {
		return now
	}
	if l.Until > 0 && l.next >= l.Until {
		return math.Inf(1)
	}
	return l.next
}

func (l *SeriesLauncher) launch(s *core.Simulation) {
	r := &seriesRun{l: l, s: s, b: l.NewBinding()}
	r.done = r.opDone
	s.AddGaugeBy(l.gauge, 1)
	r.start()
}

// seriesRun is one series in flight: its binding and the operation it is
// on. done is bound once, so chaining the operations allocates nothing per
// operation.
type seriesRun struct {
	l    *SeriesLauncher
	s    *core.Simulation
	b    *cascade.Binding
	i    int
	done func(now, dur float64)
}

// start launches operation i of the series.
func (r *seriesRun) start() {
	run, err := r.l.scratch.Instantiate(r.l.Series.Ops[r.i], r.b)
	if err != nil {
		panic(fmt.Sprintf("workload: series %s op %d: %v", r.l.Series.Name, r.i, err))
	}
	run.OnComplete = r.done
	r.s.StartOp(run)
}

// opDone chains the series' operations: completion of op i starts op i+1.
func (r *seriesRun) opDone(now, dur float64) {
	if r.i++; r.i < len(r.l.Series.Ops) {
		r.start()
		return
	}
	r.s.AddGaugeBy(r.l.gauge, -1)
	if r.l.OnSeriesDone != nil {
		r.l.OnSeriesDone(now)
	}
}

var _ core.Source = (*SeriesLauncher)(nil)
