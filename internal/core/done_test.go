package core

import (
	"slices"
	"testing"

	"repro/internal/queueing"
)

// A burst of completions buffered and drained allocates nothing, even on a
// fresh buffer: the buffer links the tasks themselves.
func TestBufferDoneBurstAllocatesNothing(t *testing.T) {
	tasks := make([]queueing.Task, 1000)
	drained := 0
	var b AgentBase
	if n := testing.AllocsPerRun(5, func() {
		b = AgentBase{}
		for i := range tasks {
			b.BufferDone(&tasks[i])
		}
		b.Drain(func(*queueing.Task) { drained++ })
	}); n != 0 {
		t.Errorf("a %d-completion burst allocates %v, want 0", len(tasks), n)
	}
	if drained != 6*len(tasks) {
		t.Errorf("drained %d completions, want %d", drained, 6*len(tasks))
	}
}

// A drain callback may enqueue the very task it was handed on another
// queue: the task has left the buffer by then, so the queue's line holds
// exactly the tasks enqueued on it, in completion order, and none of the
// buffer's remaining tasks is spliced in behind them. The buffer's last
// completion stays behind, so a link left set on the enqueued tasks would
// lead the queue into it.
func TestDrainReenqueuesItsOwnTask(t *testing.T) {
	var b AgentBase
	q := queueing.NewFCFS(1, 1e3)
	tasks := make([]queueing.Task, 7)
	for _, i := range []int{3, 0, 5, 1, 6, 2, 4} { // completion order
		tasks[i].ID = uint64(i)
		b.BufferDone(&tasks[i])
	}
	var order, enqueued []uint64
	b.Drain(func(task *queueing.Task) {
		order = append(order, task.ID)
		if task.ID != 4 {
			task.Demand = 1
			q.Enqueue(task)
			enqueued = append(enqueued, task.ID)
		}
	})
	if want := []uint64{3, 0, 5, 1, 6, 2, 4}; !slices.Equal(order, want) {
		t.Fatalf("drain order %v, want completion order %v", order, want)
	}
	if q.Waiting() != len(enqueued) {
		t.Fatalf("queue holds %d waiting tasks, want %d", q.Waiting(), len(enqueued))
	}
	var served []uint64
	for i := 0; i < 100 && !q.Idle(); i++ {
		q.Step(0.01, func(task *queueing.Task) { served = append(served, task.ID) })
	}
	if !slices.Equal(served, enqueued) {
		t.Errorf("queue served %v, want the enqueued %v", served, enqueued)
	}
	b.Drain(func(task *queueing.Task) { t.Errorf("drained buffer still holds task %d", task.ID) })
}
