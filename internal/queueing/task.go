// Package queueing implements the queue primitives that the hardware models
// of GDISim are built from (Chapter 3): multi-server FCFS queues for CPUs,
// NICs, switches and disks; processor-sharing queues with a connection limit
// for network links; and analytic M/M/c formulas used to cross-validate the
// discrete-time implementations.
//
// Queues advance in discrete time steps. Within a step they resolve service
// completions exactly (sub-step event loop), so throughput is not quantized
// by the step size. Demands are deterministic values carried by messages;
// stochastic behaviour enters the simulator through arrivals and cache hits,
// exactly as in the paper where messages convey fixed profiled R arrays.
//
// A queue's waiting line is a TaskList, which links the tasks themselves,
// so a queue allocates nothing after construction however deep its line
// gets; the agents that own the queues buffer their completions in one too.
//
// A queue is a value, set up in place by Init (NewFCFS and NewPS wrap it for
// a queue of its own), so the hardware agents hold their queues inside
// themselves and a component costs one allocation rather than one per
// queue. A queue that has been set up must not be copied: the copy would
// share its in-service array and the links of its waiting tasks, so slabs of
// queues are walked by index, never ranged by value.
//
// A queue knows nothing of the simulation that owns its agent. Enqueue
// reports whether the task starts at the next fill, which internal handoffs
// ignore; Admit turns that into the bound on the task's first event that an
// agent's Enqueue hands the flow router (core.QueueAgent), which keys the
// agent from it.
package queueing

// Task is a unit of work flowing through a queue. Demand is expressed in the
// unit the queue serves (CPU cycles, bits, bytes). Payload carries an opaque
// reference to the owning flow so the engine can resume the cascade when the
// task completes.
type Task struct {
	ID      uint64
	Demand  float64 // remaining demand in queue units
	Delay   float64 // remaining fixed delay in seconds (link latency)
	Payload any
	next    *Task // the task behind this one in its TaskList
}

// DoneFunc is invoked by a queue when a task finishes service.
type DoneFunc func(*Task)

// TaskList is an intrusive FIFO of tasks: each task carries the link to
// the one behind it, so pushing and popping allocate nothing, whatever the
// list's depth. A task sits in at most one list at a time — a queue's
// waiting line or an agent's completion buffer — and Pop clears the link
// before it hands the task back, so the caller may push the task onto
// another list (or this one) at once. Pushing a task that is still in a
// list corrupts both. A queue copied by value shares its list, and with it
// the links of the tasks in it. The zero value is an empty list.
type TaskList struct {
	head, tail *Task
	n          int
}

// Push appends t at the tail.
func (l *TaskList) Push(t *Task) {
	if l.tail == nil {
		l.head = t
	} else {
		l.tail.next = t
	}
	l.tail = t
	l.n++
}

// Pop removes and returns the head, or nil when the list is empty.
func (l *TaskList) Pop() *Task {
	t := l.head
	if t == nil {
		return nil
	}
	l.head, t.next = t.next, nil
	if l.head == nil {
		l.tail = nil
	}
	l.n--
	return t
}

// Len reports the number of tasks in the list.
func (l *TaskList) Len() int { return l.n }
