package queueing

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// The single-server step (stepOne) and the closed form (Solo, ServeSolos)
// answer to the c-server loop, stepServers, called on a one-server queue:
// same completion order, same demands, same busy accumulator, bit for bit.

// oneOpKind names one call of the differential driver.
type oneOpKind uint8

const (
	opEnqueue  oneOpKind = iota // Enqueue a new task of demand x
	opStep                      // Step(x)
	opRate                      // SetRate(x)
	opHorizon                   // Horizon, compared
	opBulk                      // quiet(n, bulkDT), compared, then BulkStep if both agree it may
	opTakeBusy                  // TakeBusy, compared
	numOneOps
)

const bulkDT = 0.01

// oneOp is one call: its kind, its argument (demand, dt, rate, or tick
// count for opBulk) and whether Horizon is compared after it. Horizon
// promotes a waiting task onto the free server, so comparing it after every
// call would leave Step nothing to promote; peek makes it a choice.
type oneOp struct {
	kind oneOpKind
	x    float64
	peek bool
}

func (o oneOp) String() string {
	name := [...]string{"enqueue", "step", "rate", "horizon", "bulk", "takebusy"}[o.kind]
	if o.peek {
		name += "+peek"
	}
	return fmt.Sprintf("%s(%v)", name, o.x)
}

// doneEvent is what a completion callback saw: the task, and the queue's
// state while the task still held the server.
type doneEvent struct {
	id                 uint64
	inService, waiting int
	idle               bool
}

// oneSide is one queue of the pair with the step under test. Each enqueue
// op admits the task and holds the admission to the arrival contract
// (checkArrival).
type oneSide struct {
	tb       testing.TB
	q        *FCFS
	step     func(q *FCFS, dt float64, done DoneFunc)
	tasks    []*Task
	log      []doneEvent
	requeued map[uint64]bool
	done     DoneFunc
}

func newOneSide(tb testing.TB, rate float64, step func(q *FCFS, dt float64, done DoneFunc)) *oneSide {
	s := &oneSide{tb: tb, q: NewFCFS(1, rate), step: step, requeued: map[uint64]bool{}}
	// The callback records what it sees and, once per task whose ID is a
	// multiple of three, puts the task back into the same queue with a new
	// demand (zero for every fifth ID) — a done that enqueues into the queue
	// that is calling it.
	s.done = func(t *Task) {
		s.log = append(s.log, doneEvent{t.ID, s.q.InService(), s.q.Waiting(), s.q.Idle()})
		if t.ID%3 == 0 && !s.requeued[t.ID] {
			s.requeued[t.ID] = true
			t.Demand = float64(t.ID%5) * 0.0173 * s.q.Rate()
			s.q.Enqueue(t)
		}
	}
	return s
}

func (s *oneSide) apply(o oneOp) (out float64, ok bool) {
	switch o.kind {
	case opEnqueue:
		t := &Task{ID: uint64(len(s.tasks) + 1), Demand: o.x}
		s.tasks = append(s.tasks, t)
		checkArrival(s.tb, s.q, t)
	case opStep:
		s.step(s.q, o.x, s.done)
	case opRate:
		s.q.SetRate(o.x)
	case opHorizon:
		return s.q.Horizon(), true
	case opBulk:
		n := int(o.x)
		if ok = quiet(s.q, n, bulkDT); ok {
			s.q.BulkStep(n, bulkDT)
		}
	case opTakeBusy:
		return s.q.TakeBusy(), true
	}
	return 0, ok
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffOneServer runs ops on a one-server queue stepped by Step and on one
// stepped by the c-server loop, comparing with zero tolerance after every
// call: the completion log (order, and the state each callback saw), every
// task's demand, the busy accumulator, arrivals, departures, how many tasks
// wait and serve, the call's own result, and Horizon where the op asks.
func diffOneServer(t testing.TB, rate float64, ops []oneOp) {
	t.Helper()
	got := newOneSide(t, rate, (*FCFS).Step)
	want := newOneSide(t, rate, (*FCFS).stepServers)
	for i, o := range ops {
		gv, gok := got.apply(o)
		wv, wok := want.apply(o)
		fail := func(what string, g, w any) {
			t.Helper()
			t.Fatalf("op %d %v: %s %v, c-server loop %v (ops %v)", i, o, what, g, w, ops)
		}
		if gok != wok || !bitsEqual(gv, wv) {
			fail("result", fmt.Sprint(gv, gok), fmt.Sprint(wv, wok))
		}
		if !slices.Equal(got.log, want.log) {
			fail("completions", got.log, want.log)
		}
		for k := range got.tasks {
			if g, w := got.tasks[k].Demand, want.tasks[k].Demand; !bitsEqual(g, w) {
				fail(fmt.Sprintf("task %d demand", k+1), g, w)
			}
		}
		if !bitsEqual(got.q.busy, want.q.busy) {
			fail("busy", got.q.busy, want.q.busy)
		}
		if got.q.Arrivals() != want.q.Arrivals() {
			fail("arrivals", got.q.Arrivals(), want.q.Arrivals())
		}
		if got.q.InService() != want.q.InService() || got.q.Waiting() != want.q.Waiting() {
			fail("in service/waiting", [2]int{got.q.InService(), got.q.Waiting()},
				[2]int{want.q.InService(), want.q.Waiting()})
		}
		if o.peek {
			if g, w := got.q.Horizon(), want.q.Horizon(); !bitsEqual(g, w) {
				fail("horizon", g, w)
			}
		}
	}
}

func TestFCFSOneServerMatchesGeneral(t *testing.T) {
	enq := func(d float64) oneOp { return oneOp{kind: opEnqueue, x: d} }
	step := func(dt float64) oneOp { return oneOp{kind: opStep, x: dt} }
	peek := func(o oneOp) oneOp { o.peek = true; return o }
	cases := []struct {
		name string
		rate float64
		ops  []oneOp
	}{
		{"zero-demand burst", 7.3, []oneOp{enq(0), enq(0), enq(0.5), enq(0), step(0.01), step(0.1), peek(step(0.01))}},
		{"chain inside one step", 7.3, []oneOp{enq(0.011), enq(0.37), enq(0.02), enq(0.005), enq(1), peek(step(0.25)), step(0.25)}},
		{"done re-enqueues", 7.3, []oneOp{enq(0.01), enq(0.02), enq(0.03), enq(0.04), enq(0.05), enq(0.06), step(0.05), step(0.05), peek(step(0.05)), step(0.5)}},
		{"rate change in service", 100e6, []oneOp{enq(3e6), step(0.005), {kind: opRate, x: 40e6}, step(0.005), peek(step(0.005)), {kind: opRate, x: 100e6}, step(0.05)}},
		{"bulk windows", 7.3, []oneOp{enq(2), peek(step(0.01)), {kind: opBulk, x: 20}, step(0.01), {kind: opBulk, x: 30}, {kind: opHorizon}, {kind: opBulk, x: 9}, step(0.3)}},
		{"bulk refused near a completion", 7.3, []oneOp{enq(0.1), {kind: opBulk, x: 2}, {kind: opBulk, x: 3}, step(0.01), {kind: opTakeBusy}}},
		{"step below eps", 7.3, []oneOp{enq(0.5), step(1e-13), peek(step(1e-13)), step(0.01)}},
		{"exact fit", 100e6, []oneOp{enq(5e5), step(0.005), enq(5e5), enq(5e5), step(0.01)}},
		{"horizon promotes before step", 7.3, []oneOp{enq(0.3), enq(0.2), {kind: opHorizon}, step(0.02), {kind: opHorizon}, step(0.1)}},
		{"busy drained between steps", 7.3, []oneOp{enq(0.7), step(0.03), {kind: opTakeBusy}, step(0.03), {kind: opTakeBusy}, step(1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { diffOneServer(t, c.rate, c.ops) })
	}
}

// decodeOneOps reads a call sequence from bytes, two per call: the kind
// (high bit: compare Horizon after it) and its argument.
func decodeOneOps(raw []byte) []oneOp {
	var ops []oneOp
	for i := 0; i+1 < len(raw); i += 2 {
		o := oneOp{kind: oneOpKind(raw[i]&0x7f) % numOneOps, peek: raw[i]&0x80 != 0}
		arg := float64(raw[i+1])
		switch o.kind {
		case opEnqueue:
			d := float64(raw[i+1] % 64)
			o.x = d * d * 2e-3 // 0 to ~8 units: up to ~1 s at the base rate
		case opStep:
			o.x = (arg + 1) * 0.0025
			if raw[i+1] >= 250 {
				o.x = 1e-13 // below eps: Step does nothing but promote
			}
		case opRate:
			o.x = 7.3 * (float64(raw[i+1]%8) + 1) / 4
		case opBulk:
			o.x = 2 + float64(raw[i+1]%30)
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzFCFSOneServerMatchesGeneral explores call sequences the table does not:
// random enqueues (zero demands included), steps of varying dt, rate changes
// between steps, and interleaved Horizon, horizon-bounded BulkStep and
// TakeBusy calls, all on a one-server queue whose done re-enqueues into it.
// Every enqueue is an Admit whose report — the h of a task that starts at
// the next fill, +Inf for one that waits — is checked against the horizon
// before and after (checkArrival).
func FuzzFCFSOneServerMatchesGeneral(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 33, 1, 3, 0x81, 20, 0, 63, 1, 100})
	f.Add([]byte{0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 1, 40, 2, 1, 1, 40, 0x81, 255, 1, 200})
	f.Add([]byte{0, 40, 0x84, 10, 1, 0, 4, 29, 3, 0, 5, 0, 2, 7, 1, 90, 5, 0})
	f.Add([]byte{0, 0, 0, 0, 0x80, 0, 1, 250, 0x81, 251, 0, 1, 1, 0})
	f.Add([]byte{0, 63, 0, 1, 3, 0, 2, 0, 1, 3, 2, 5, 1, 3, 0x82, 3, 4, 2, 1, 120})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		diffOneServer(t, 7.3, decodeOneOps(raw))
	})
}

// serveCase is one ServeSolos call: the queue it meets and the batch.
type serveCase struct {
	servers  int
	rate     float64
	busy     float64   // busy seconds already accumulated: the sum order shows
	queued   float64   // demand already queued (the queue is not idle) if > 0
	demands  []float64 // the batch
	dt       float64
	soloRate float64 // the rate the solos are computed at, if not rate
}

func (c serveCase) queue() (*FCFS, []*Task) {
	q := NewFCFS(c.servers, c.rate)
	q.busy = c.busy
	if c.queued > 0 {
		q.Enqueue(&Task{ID: 99, Demand: c.queued})
	}
	var ts []*Task
	for i, d := range c.demands {
		ts = append(ts, &Task{ID: uint64(i + 1), Demand: d})
	}
	return q, ts
}

// checkServeSolos computes the batch's solos — once, on a queue of the solo
// rate, as a disk array does for all its lanes — and calls ServeSolos with
// them on c's queue. It holds the result to Enqueue of each task then the
// c-server step on an identical queue when it accepts — every task
// completes, in order, and busy time and counters match bit for bit — and
// to an untouched queue when it refuses.
func checkServeSolos(t *testing.T, c serveCase) bool {
	t.Helper()
	same := func(what string, a, b *FCFS) {
		t.Helper()
		if !bitsEqual(a.busy, b.busy) || a.Arrivals() != b.Arrivals() ||
			a.InService() != b.InService() || a.Waiting() != b.Waiting() {
			t.Fatalf("%+v %s: busy %v arrivals %d in service %d waiting %d, want %v %d %d %d", c, what,
				a.busy, a.Arrivals(), a.InService(), a.Waiting(),
				b.busy, b.Arrivals(), b.InService(), b.Waiting())
		}
	}
	q, ts := c.queue()
	at := q
	if c.soloRate != 0 {
		at = NewFCFS(1, c.soloRate)
	}
	solos := make([]Solo, len(ts))
	for i, task := range ts {
		solos[i] = at.Solo(task.Demand)
	}
	if !q.ServeSolos(solos, c.dt) {
		fresh, _ := c.queue()
		same("refused", q, fresh)
		return false
	}
	ref, rts := c.queue()
	for _, task := range rts {
		ref.Enqueue(task)
	}
	var done []*Task
	ref.stepServers(c.dt, collect(&done))
	if len(done) != len(rts) {
		t.Fatalf("%+v accepted, but Enqueue+Step completes %d of %d", c, len(done), len(rts))
	}
	for i := range done {
		if done[i] != rts[i] {
			t.Fatalf("%+v: Enqueue+Step completion %d is task %d", c, i, done[i].ID)
		}
	}
	same("accepted", q, ref)
	return true
}

// Solo then ServeSolos is Enqueue of each task then Step when it accepts,
// and leaves the queue untouched when it refuses: one row per refusal edge,
// the accepted shapes around them, then random batches on lanes with a busy
// history.
func TestServeAllMatchesEnqueueStep(t *testing.T) {
	const dt, rate = 0.005, 100e6 // a 100 MB/s drive lane, one 5 ms tick
	const busy = 0.0123456789     // an earlier tick's service
	cases := []struct {
		name string
		serveCase
		accept bool
	}{
		{"three stripes inside the tick", serveCase{1, rate, busy, 0, []float64{1e5, 1.3e5, 4096}, dt, 0}, true},
		{"one stripe", serveCase{1, rate, 0, 0, []float64{312500}, dt, 0}, true},
		{"zero-byte stripes", serveCase{1, rate, busy, 0, []float64{0, 0, 0}, dt, 0}, true},
		{"zero-byte after a stripe", serveCase{1, rate, busy, 0, []float64{2e5, 0}, dt, 0}, true},
		{"non-idle queue", serveCase{1, rate, busy, 1e5, []float64{1e5}, dt, 0}, false},
		{"two servers", serveCase{2, rate, 0, 0, []float64{1e5}, dt, 0}, false},
		{"stripe ending exactly at dt", serveCase{1, rate, busy, 0, []float64{5e5}, dt, 0}, false},
		{"second stripe spills past the tick", serveCase{1, rate, busy, 0, []float64{3e5, 3e5}, dt, 0}, false},
		{"remaining at most eps", serveCase{1, rate, busy, 0, []float64{5e5 - 1e-6, 0}, dt, 0}, false},
		{"derated lane, fits", serveCase{1, 0.4 * rate, busy, 0, []float64{1e5, 9e4}, dt, 0}, true},
		{"derated lane, spills", serveCase{1, 0.4 * rate, busy, 0, []float64{3e5}, dt, 0}, false},
		{"solos from a derated lane", serveCase{1, rate, busy, 0, []float64{1e5, 9e4}, dt, 0.4 * rate}, false},
		{"solos from a full-speed lane", serveCase{1, 0.4 * rate, busy, 0, []float64{1e5}, dt, rate}, false},
		{"tick below eps", serveCase{1, rate, busy, 0, []float64{0}, 1e-13, 0}, false},
		{"no stripes", serveCase{1, rate, busy, 0, nil, dt, 0}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkServeSolos(t, c.serveCase); got != c.accept {
				t.Fatalf("ServeSolos = %v, want %v", got, c.accept)
			}
		})
	}
	t.Run("random batches", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(25, 1))
		accepted := 0
		const n = 4000
		for i := 0; i < n; i++ {
			c := serveCase{servers: 1, rate: rate * (0.2 + rng.Float64()), busy: rng.Float64() * 3, dt: dt}
			for k := rng.IntN(6) + 1; k > 0; k-- {
				d := 0.0
				if rng.IntN(8) > 0 {
					d = rng.Float64() * 2.5e5
				}
				c.demands = append(c.demands, d)
			}
			if checkServeSolos(t, c) {
				accepted++
			}
		}
		if accepted < n/10 || accepted > n-n/10 {
			t.Fatalf("ServeSolos accepted %d of %d batches: both outcomes should be common", accepted, n)
		}
	})
}
