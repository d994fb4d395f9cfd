package queueing

import "testing"

// A TaskList hands its tasks back in push order, with their links cleared,
// and an emptied list takes pushes again.
func TestTaskListFIFO(t *testing.T) {
	var l TaskList
	if l.Pop() != nil || l.Len() != 0 {
		t.Fatal("zero list is not empty")
	}
	tasks := make([]Task, 5)
	for round := 0; round < 2; round++ {
		for i := range tasks {
			tasks[i].ID = uint64(i)
			l.Push(&tasks[i])
			if l.Len() != i+1 {
				t.Fatalf("round %d: Len = %d after %d pushes", round, l.Len(), i+1)
			}
		}
		for i := range tasks {
			got := l.Pop()
			if got != &tasks[i] {
				t.Fatalf("round %d: pop %d returned task %d", round, i, got.ID)
			}
			if got.next != nil {
				t.Fatalf("round %d: task %d left the list still linked", round, got.ID)
			}
		}
		if l.Pop() != nil || l.Len() != 0 || l.head != nil || l.tail != nil {
			t.Fatalf("round %d: drained list is not empty", round)
		}
	}
}

// burstAllocs returns the allocations of building a queue with newQ, handing
// it a burst of n tasks in one tick and stepping it to idle.
func burstAllocs(newQ func() Queue, n int) float64 {
	tasks := make([]Task, n)
	done := func(*Task) {}
	return testing.AllocsPerRun(5, func() {
		q := newQ()
		for i := range tasks {
			tasks[i] = Task{ID: uint64(i), Demand: 1000}
			q.Enqueue(&tasks[i])
		}
		for !q.Idle() {
			q.Step(0.01, done)
		}
	})
}

// A burst that waits in line costs a queue nothing beyond what a burst that
// never waits costs it: the waiting line links the tasks themselves. For an
// FCFS queue that is its constructor's allocations alone, since its servers
// are sized at construction; a PS queue's in-service slots grow as they
// fill, up to its connection limit, whatever the burst behind them.
func TestQueueBurstAllocatesNothing(t *testing.T) {
	const burst = 1000
	for _, c := range []struct {
		name  string
		slots int
		newQ  func() Queue
	}{
		{"FCFS/1", 1, func() Queue { return NewFCFS(1, 1e5) }},
		{"FCFS/8", 8, func() Queue { return NewFCFS(8, 1e5) }},
		{"PS/4", 4, func() Queue { return NewPS(4e5, 4, 0.02) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			fresh := testing.AllocsPerRun(5, func() { c.newQ() })
			base := burstAllocs(c.newQ, c.slots)
			if got := burstAllocs(c.newQ, burst); got != base {
				t.Errorf("a %d-task burst allocates %v, a %d-task burst %v (constructor %v)",
					burst, got, c.slots, base, fresh)
			}
			if _, ok := c.newQ().(*FCFS); ok && base != fresh {
				t.Errorf("a %d-task burst allocates %v, the constructor %v", c.slots, base, fresh)
			}
		})
	}
}

// Init sets a queue up where it lies: a single-server FCFS queue and a PS
// queue allocate nothing for it, and c servers take one in-service array.
func TestInitInPlaceAllocates(t *testing.T) {
	var f FCFS
	var p PS
	for _, c := range []struct {
		name string
		want float64
		init func()
	}{
		{"FCFS/1", 0, func() { f.Init(1, 1e5) }},
		{"FCFS/8", 1, func() { f.Init(8, 1e5) }},
		{"PS", 0, func() { p.Init(4e5, 4, 0.02) }},
	} {
		if got := testing.AllocsPerRun(20, c.init); got != c.want {
			t.Errorf("%s: Init allocates %v, want %v", c.name, got, c.want)
		}
	}
	// A re-initialised queue starts empty and serves on its own array.
	f.Init(1, 1e3)
	f.Enqueue(&Task{ID: 1, Demand: 1e3})
	f.Init(1, 1e3)
	if !f.Idle() || f.Arrivals() != 0 || cap(f.inService) != 1 || &f.inService[:1][0] != &f.solo[0] {
		t.Fatal("Init left state behind or serves outside the queue")
	}
}
