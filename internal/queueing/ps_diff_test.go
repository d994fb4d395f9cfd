package queueing

import (
	"fmt"
	"slices"
	"testing"
)

// PS answers to refPS, the queue before its one-pass scans: same completion
// order, same demands and latency countdowns, same work total, bit for bit.

// psOpKind names one call of the differential driver.
type psOpKind uint8

const (
	psEnqueue  psOpKind = iota // Enqueue a new task of demand x
	psStep                     // Step(x)
	psRate                     // SetRate(x)
	psLatency                  // SetLatency(x)
	psHorizon                  // Horizon, compared
	psBulk                     // quiet(x ticks of psDT), compared, then BulkStep if both agree it may
	psTakeBusy                 // TakeBusy, compared
	numPSOps
)

const psDT = 1.0 / 64

// psOp is one call: its kind, its argument and whether Horizon is compared
// after it (Horizon promotes waiting tasks, which Step would otherwise do).
type psOp struct {
	kind psOpKind
	x    float64
	peek bool
}

func (o psOp) String() string {
	name := [...]string{"enqueue", "step", "rate", "latency", "horizon", "bulk", "takebusy"}[o.kind]
	if o.peek {
		name += "+peek"
	}
	return fmt.Sprintf("%s(%v)", name, o.x)
}

// psQueue is the method set PS and refPS share.
type psQueue interface {
	Enqueue(*Task)
	Step(dt float64, done DoneFunc)
	SetRate(rate float64)
	SetLatency(latency float64)
	Horizon() float64
	BulkStep(n int, dt float64)
	TakeBusy() float64
	InService() int
	Waiting() int
	Idle() bool
}

// psSide is one queue of the pair. On the PS side, arrivals records the h of
// every arrival that fires the hook and each enqueue op holds the enqueue to
// the arrival contract (checkArrival); the reference has no hook.
type psSide struct {
	q        psQueue
	tasks    []*Task
	log      []doneEvent
	requeued map[uint64]bool
	done     DoneFunc
	tb       testing.TB
	arrivals *arrivalHook
}

func newPSSide(q psQueue) *psSide {
	s := &psSide{q: q, requeued: map[uint64]bool{}}
	// The callback records what it sees and, once per task whose ID is a
	// multiple of three, puts the task back into the same queue — promoted
	// mid-step when a slot is free — with a new demand, zero for every fifth.
	s.done = func(t *Task) {
		s.log = append(s.log, doneEvent{t.ID, s.q.InService(), s.q.Waiting(), s.q.Idle()})
		if t.ID%3 == 0 && !s.requeued[t.ID] {
			s.requeued[t.ID] = true
			t.Demand = float64(t.ID%5) / 16
			s.q.Enqueue(t)
		}
	}
	return s
}

func (s *psSide) apply(o psOp) (out float64, ok bool) {
	switch o.kind {
	case psEnqueue:
		t := &Task{ID: uint64(len(s.tasks) + 1), Demand: o.x}
		s.tasks = append(s.tasks, t)
		if s.arrivals != nil {
			checkArrival(s.tb, s.q.(*PS), s.arrivals, t)
		} else {
			s.q.Enqueue(t)
		}
	case psStep:
		s.q.Step(o.x, s.done)
	case psRate:
		s.q.SetRate(o.x)
	case psLatency:
		s.q.SetLatency(o.x)
	case psHorizon:
		return s.q.Horizon(), true
	case psBulk:
		n := int(o.x)
		if ok = quiet(s.q, n, psDT); ok {
			s.q.BulkStep(n, psDT)
		}
	case psTakeBusy:
		return s.q.TakeBusy(), true
	}
	return 0, ok
}

// diffPS runs ops on a PS and on a refPS with the same rate and connection
// limit, comparing with zero tolerance after every call: the completion log
// (order, and the state each callback saw), every task's demand and delay,
// the work total, arrivals, departures, how many tasks wait and transfer,
// the call's own result, and Horizon where the op asks.
func diffPS(t testing.TB, rate float64, k int, ops []psOp) {
	t.Helper()
	gq, wq := NewPS(rate, k, 0), newRefPS(rate, k, 0)
	got, want := newPSSide(gq), newPSSide(wq)
	got.tb, got.arrivals = t, &arrivalHook{}
	gq.SetNotify(NotifyFunc(got.arrivals.notify))
	for i, o := range ops {
		gv, gok := got.apply(o)
		wv, wok := want.apply(o)
		fail := func(what string, g, w any) {
			t.Helper()
			t.Fatalf("op %d %v: %s %v, reference %v (k=%d, ops %v)", i, o, what, g, w, k, ops)
		}
		if gok != wok || !bitsEqual(gv, wv) {
			fail("result", fmt.Sprint(gv, gok), fmt.Sprint(wv, wok))
		}
		if !slices.Equal(got.log, want.log) {
			fail("completions", got.log, want.log)
		}
		for n := range got.tasks {
			g, w := got.tasks[n], want.tasks[n]
			if !bitsEqual(g.Demand, w.Demand) || !bitsEqual(g.Delay, w.Delay) {
				fail(fmt.Sprintf("task %d demand/delay", n+1), [2]float64{g.Demand, g.Delay}, [2]float64{w.Demand, w.Delay})
			}
		}
		if !bitsEqual(gq.work, wq.work) {
			fail("work", gq.work, wq.work)
		}
		if gq.Arrivals() != wq.Arrivals() || gq.Departures() != wq.Departures() {
			fail("arrivals/departures", [2]uint64{gq.Arrivals(), gq.Departures()}, [2]uint64{wq.Arrivals(), wq.Departures()})
		}
		if gq.InService() != wq.InService() || gq.Waiting() != wq.Waiting() {
			fail("in service/waiting", [2]int{gq.InService(), gq.Waiting()}, [2]int{wq.InService(), wq.Waiting()})
		}
		if o.peek {
			if g, w := gq.Horizon(), wq.Horizon(); !bitsEqual(g, w) {
				fail("horizon", g, w)
			}
		}
	}
}

func TestPSMatchesReference(t *testing.T) {
	enq := func(d float64) psOp { return psOp{kind: psEnqueue, x: d} }
	step := func(dt float64) psOp { return psOp{kind: psStep, x: dt} }
	lat := func(l float64) psOp { return psOp{kind: psLatency, x: l} }
	bulk := func(n float64) psOp { return psOp{kind: psBulk, x: n} }
	peek := func(o psOp) psOp { o.peek = true; return o }
	horizon := psOp{kind: psHorizon}
	cases := []struct {
		name string
		rate float64
		k    int
		ops  []psOp
	}{
		// A completion at 0.5 s, then an offset exactly eps past it: it has
		// expired, so the second transfer starts at once and runs 0.5 s.
		{"expiry eps after a completion", 1, 4, []psOp{enq(0.5), lat(0.5 + eps), enq(2), peek(step(1)), step(1)}},
		{"latency of exactly eps", 1, 4, []psOp{lat(eps), peek(enq(0.5)), step(0.25), lat(2 * eps), peek(enq(0.25)), step(1)}},
		{"completion then expiry in one step", 1, 4, []psOp{enq(0.25), lat(0.375), enq(0.5), enq(0.125), peek(step(1)), step(1)}},
		{"three-way share", 1.75, 8, []psOp{enq(0.3), enq(0.7), enq(1.1), peek(step(0.1)), step(0.5), peek(step(0.5)), step(1)}},
		{"connection limit and re-enqueue", 1, 1, []psOp{enq(0.1), enq(0.2), enq(0.3), enq(0.05), enq(0.4), enq(0.6), step(0.25), peek(step(0.25)), step(1), step(1)}},
		{"promoted mid-step", 1, 2, []psOp{lat(0.125), enq(0.25), enq(0.5), enq(0.75), enq(0.1), step(0.5), peek(step(0.5)), step(1)}},
		{"bulk windows across phases", 1, 4, []psOp{lat(0.3), enq(2), peek(step(psDT)), bulk(10), step(psDT), bulk(30), horizon, bulk(9), step(0.5), bulk(20), step(1)}},
		{"rate and latency changes in flight", 1, 4, []psOp{lat(0.05), enq(0.4), enq(0.2), step(0.03), {kind: psRate, x: 0.4}, lat(0), enq(0.1), peek(step(0.1)), {kind: psRate, x: 2}, step(0.5)}},
		{"step below eps", 1, 4, []psOp{lat(0.01), enq(0.5), step(1e-13), peek(step(1e-13)), step(0.25), {kind: psTakeBusy}, step(1)}},
		{"zero-demand transfers", 1, 4, []psOp{enq(0), enq(0), lat(0.2), enq(0), enq(0.3), peek(step(0.25)), step(0.5)}},
		// Local links: a convoy of equal transfers whose latency ends inside
		// the first step, so its first sub-step only counts down.
		{"eight identical transfers, latency below dt", 1, 8, []psOp{lat(0.0625), enq(0.25), enq(0.25), enq(0.25), enq(0.25),
			enq(0.25), enq(0.25), enq(0.25), enq(0.25), peek(step(0.125)), step(0.5), peek(step(0.5)), step(1), step(1)}},
		// Steps whose sub-steps alternate between latency only and transfer:
		// a lone countdown, then a transfer joined by two later expiries.
		{"mixed latency and transfer sub-steps", 1, 4, []psOp{lat(0.25), enq(0.5), step(0.125), lat(0.0625), enq(0.25),
			enq(0.125), peek(step(0.5)), lat(0.1875), enq(0.375), step(0.25), peek(step(1)), step(1)}},
		// Both slots free at once mid-step; the promoted tasks start their
		// countdown next step, so the rest of this one transfers nothing.
		{"k-limited, waiting promoted mid-step", 1, 2, []psOp{lat(0.0625), enq(0.125), enq(0.125), enq(0.5), enq(0.5),
			enq(0.25), peek(step(0.5)), step(0.5), peek(step(1)), step(1), step(1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { diffPS(t, c.rate, c.k, c.ops) })
	}
}

// decodePSOps reads a call sequence from bytes, two per call: the kind (high
// bit: compare Horizon after it) and its argument. Demands, steps and
// latencies sit on binary grids, with latencies up to three eps above a grid
// point, so an offset can land exactly eps after a completion.
func decodePSOps(raw []byte) []psOp {
	var ops []psOp
	for i := 0; i+1 < len(raw); i += 2 {
		o := psOp{kind: psOpKind(raw[i]&0x7f) % numPSOps, peek: raw[i]&0x80 != 0}
		arg := raw[i+1]
		switch o.kind {
		case psEnqueue:
			o.x = float64(arg%64) / 32 // 0 to ~2 s of transfer alone
		case psStep:
			o.x = float64(arg%64+1) / 64
			if arg >= 250 {
				o.x = 1e-13 // below eps: Step does nothing but promote
			}
		case psRate:
			o.x = float64(arg%8+1) / 4
		case psLatency:
			o.x = float64(arg%32)/32 + float64(arg>>5&3)*eps
		case psBulk:
			o.x = float64(2 + arg%30)
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzPSMatchesReference explores call sequences the table does not: random
// enqueues, steps of varying dt, rate and latency changes between steps, and
// interleaved Horizon, horizon-bounded BulkStep and TakeBusy calls, on a
// queue of one to four connections whose done re-enqueues into it. Every
// enqueue on the PS side also checks its notify hook — the h it reports, or
// its silence for a task that waits — against the horizon before and after
// (checkArrival).
func FuzzPSMatchesReference(f *testing.F) {
	f.Add(uint8(3), []byte{0, 16, 3, 48, 0, 63, 0x81, 63, 1, 63})
	f.Add(uint8(0), []byte{0, 10, 0, 0, 0, 33, 1, 3, 0x81, 20, 0, 63, 1, 100, 1, 63})
	f.Add(uint8(1), []byte{3, 9, 0, 40, 0, 41, 0x85, 10, 1, 1, 5, 29, 4, 0, 2, 5, 1, 63, 6, 0, 1, 63})
	f.Add(uint8(2), []byte{0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 1, 40, 2, 1, 1, 40, 0x81, 255, 1, 63})
	f.Add(uint8(3), []byte{3, 3, 0, 63, 0, 1, 3, 0, 0, 12, 0x81, 2, 2, 6, 0x85, 3, 1, 63, 1, 63})
	f.Add(uint8(3), []byte{3, 1, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 8, 0x81, 7, 1, 63, 1, 63, 1, 63})
	f.Add(uint8(3), []byte{3, 8, 0, 16, 1, 7, 3, 2, 0, 8, 0, 4, 0x81, 31, 3, 6, 0, 12, 1, 15, 1, 63, 1, 63})
	f.Add(uint8(1), []byte{3, 2, 0, 4, 0, 4, 0, 16, 0, 16, 0, 8, 0x81, 31, 1, 31, 0x81, 63, 1, 63})
	f.Fuzz(func(t *testing.T, k uint8, raw []byte) {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		diffPS(t, 1, 1+int(k%4), decodePSOps(raw))
	})
}
