package queueing

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// arrivalQueue is the method set FCFS and PS share that the arrival-bound
// checks drive.
type arrivalQueue interface {
	Enqueue(*Task) bool
	Admit(*Task) float64
	Horizon() float64
	Idle() bool
	InService() int
	Waiting() int
}

// slots returns how many tasks q serves at once: its servers, or its
// connection limit.
func slots(q arrivalQueue) int {
	switch q := q.(type) {
	case *FCFS:
		return q.servers
	case *PS:
		return q.k
	}
	panic(fmt.Sprintf("slots: unexpected queue %T", q))
}

// peekHorizon returns q's Horizon without promoting anything on q itself:
// Horizon promotes waiting tasks, which would leave the next Step nothing
// to promote, so it reads a copy with its own task lists. Horizon reads
// tasks and never writes them, so the copy's in-service slice may share
// them; its waiting list holds copies of the waiting tasks, because a
// TaskList links the tasks themselves and the copy's fill would unlink the
// original's.
func peekHorizon(q arrivalQueue) float64 {
	switch q := q.(type) {
	case *FCFS:
		c := *q
		c.inService = slices.Clone(q.inService)
		c.waiting = copyList(&q.waiting)
		return c.Horizon()
	case *PS:
		c := *q
		c.inService = slices.Clone(q.inService)
		c.waiting = copyList(&q.waiting)
		return c.Horizon()
	}
	panic(fmt.Sprintf("peekHorizon: unexpected queue %T", q))
}

// copyList returns a list of copies of l's tasks, in l's order, leaving l
// and its tasks as they are.
func copyList(l *TaskList) TaskList {
	var c TaskList
	for t := l.head; t != nil; t = t.next {
		tc := *t
		tc.next = nil
		c.Push(&tc)
	}
	return c
}

// checkArrival admits t on q and holds the admission to the arrival
// contract of Admit. A task that will hold a server or slot at the next fill
// reports a finite h, and the queue's horizon after the enqueue is at least
// min(its horizon before, h), and exactly h, bit for bit, when the queue was
// idle. A task that has to wait reports +Inf, and the horizon after is the
// horizon before, bit for bit. It returns whether the arrival reported a
// bound, the h it reported and the horizon after.
func checkArrival(t testing.TB, q arrivalQueue, task *Task) (fired bool, h, after float64) {
	t.Helper()
	idle, before := q.Idle(), peekHorizon(q)
	starts := q.InService()+q.Waiting() < slots(q)
	h = q.Admit(task)
	after = peekHorizon(q)
	if !starts {
		if !math.IsInf(h, 1) {
			t.Fatalf("task %d (demand %v) waits, but Admit reported %v", task.ID, task.Demand, h)
		}
		if math.Float64bits(after) != math.Float64bits(before) {
			t.Fatalf("task %d (demand %v) waits, but the horizon moved from %v to %v", task.ID, task.Demand, before, after)
		}
		return false, h, after
	}
	if math.IsInf(h, 1) {
		t.Fatalf("task %d (demand %v) starts at the next fill, but Admit reported +Inf", task.ID, task.Demand)
	}
	if after < min(before, h) {
		t.Fatalf("task %d (demand %v): horizon %v after the enqueue, below min(%v before, bound %v)",
			task.ID, task.Demand, after, before, h)
	}
	if idle && math.Float64bits(after) != math.Float64bits(h) {
		t.Fatalf("task %d (demand %v) on an idle queue: bound %v, horizon after %v", task.ID, task.Demand, h, after)
	}
	return true, h, after
}

// TestArrivalHorizonBound pins the h each queue's Admit reports and its
// relation to the horizon after the enqueue, one row per case the bound
// distinguishes: exact where the task's first event is the queue's next
// (idle queues, FCFS with a free server, PS in its latency phase), +Inf
// where it waits — the horizon unchanged — and strictly early on a busy
// zero-latency PS, whose new transfer lowers the share.
func TestArrivalHorizonBound(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		queue  func() arrivalQueue
		loaded []float64 // demands enqueued (and promoted) before the checked arrival
		demand float64
		wantH  float64 // +Inf: the task waits
		early  bool    // the horizon after lies strictly above min(before, h)
	}{
		{name: "idle FCFS", queue: func() arrivalQueue { return NewFCFS(1, 4) }, demand: 3, wantH: 0.75},
		{name: "busy single server", queue: func() arrivalQueue { return NewFCFS(1, 4) }, loaded: []float64{8}, demand: 1, wantH: inf},
		{name: "c servers, one free", queue: func() arrivalQueue { return NewFCFS(3, 4) }, loaded: []float64{8, 12}, demand: 1, wantH: 0.25},
		{name: "c servers, none free", queue: func() arrivalQueue { return NewFCFS(2, 4) }, loaded: []float64{8, 12}, demand: 1, wantH: inf},
		{name: "idle zero-latency PS", queue: func() arrivalQueue { return NewPS(4, 4, 0) }, demand: 3, wantH: 0.75},
		{name: "PS with latency", queue: func() arrivalQueue { return NewPS(4, 4, 0.125) }, loaded: []float64{1}, demand: 3, wantH: 0.125},
		{name: "busy zero-latency PS", queue: func() arrivalQueue { return NewPS(4, 4, 0) }, loaded: []float64{8}, demand: 3, wantH: 0.75, early: true},
		{name: "PS at its k limit", queue: func() arrivalQueue { return NewPS(4, 2, 0) }, loaded: []float64{8, 12}, demand: 1, wantH: inf},
		{name: "zero-demand task", queue: func() arrivalQueue { return NewFCFS(1, 4) }, demand: 0, wantH: 0},
		{name: "zero-demand task on PS", queue: func() arrivalQueue { return NewPS(4, 4, 0) }, demand: 0, wantH: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := c.queue()
			for i, d := range c.loaded {
				q.Enqueue(&Task{ID: uint64(100 + i), Demand: d})
			}
			q.Horizon() // promote the loaded tasks, as a Step would
			before := q.Horizon()
			_, h, after := checkArrival(t, q, &Task{ID: 1, Demand: c.demand})
			if math.Float64bits(h) != math.Float64bits(c.wantH) {
				t.Fatalf("Admit reported %v, want %v", h, c.wantH)
			}
			if got := after > min(before, h); got != c.early {
				t.Fatalf("horizon %v after, min(before %v, h %v): strictly early %v, want %v", after, before, h, got, c.early)
			}
		})
	}
}

// TestBulkStepPromotesWaiting is the BulkStep side of the arrival bound: a
// task enqueued behind a free server (or slot) is not promoted until the
// next Step, Horizon or BulkStep — the loop does not call Horizon after an
// arrival — so BulkStep(n) must promote it first and then equal n Steps
// bit for bit.
func TestBulkStepPromotesWaiting(t *testing.T) {
	const dt, n = 0.01, 37
	noDone := func(*Task) { t.Fatal("a task completed inside the bulk window") }
	type bulkQueue interface {
		Enqueue(*Task) bool
		Step(dt float64, done DoneFunc)
		BulkStep(n int, dt float64)
		TakeBusy() float64
		Waiting() int
	}
	for _, c := range []struct {
		name      string
		mk        func() bulkQueue
		busyFirst bool // step once between the enqueues, so the first task holds a server
	}{
		{"FCFS, one server", func() bulkQueue { return NewFCFS(1, 7.3) }, false},
		{"FCFS, one of three servers busy", func() bulkQueue { return NewFCFS(3, 7.3) }, true},
		{"zero-latency PS", func() bulkQueue { return NewPS(9.7, 4, 0) }, false},
		{"PS with latency", func() bulkQueue { return NewPS(9.7, 4, 1) }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk := func() (bulkQueue, []*Task) {
				q := c.mk()
				ts := []*Task{{ID: 1, Demand: 40}, {ID: 2, Demand: 30}}
				q.Enqueue(ts[0])
				if c.busyFirst {
					q.Step(dt, noDone)
				}
				q.Enqueue(ts[1])
				return q, ts
			}
			ref, refTasks := mk()
			bulk, bulkTasks := mk()
			if bulk.Waiting() == 0 {
				t.Fatal("the second task was promoted before the bulk window")
			}
			bulk.BulkStep(n, dt)
			for i := 0; i < n; i++ {
				ref.Step(dt, noDone)
			}
			if bulk.Waiting() != ref.Waiting() {
				t.Fatalf("waiting %d after BulkStep, %d after Steps", bulk.Waiting(), ref.Waiting())
			}
			sameBits(t, c.name, refTasks, bulkTasks)
			if rb, bb := ref.TakeBusy(), bulk.TakeBusy(); math.Float64bits(rb) != math.Float64bits(bb) {
				t.Errorf("busy %v after BulkStep, %v after Steps", bb, rb)
			}
		})
	}
}
