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
// queue. Its arrival hook is a Notifier — the owning agent's
// *core.AgentBase, through Arrive — not a closure bound per queue. A queue
// that has been set up must not be copied: the copy would share its
// in-service array and the links of its waiting tasks, so slabs of queues
// are walked by index, never ranged by value.
package queueing

// Notifier receives a queue's arrival notifications (FCFS.SetNotify,
// PS.SetNotify): Arrive(h) reports that the queue's next event may now lie
// as early as h seconds ahead. *core.AgentBase implements it.
type Notifier interface {
	Arrive(h float64)
}

// NotifyFunc adapts a plain function to a Notifier.
type NotifyFunc func(h float64)

// Arrive calls f(h).
func (f NotifyFunc) Arrive(h float64) { f(h) }

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

// Queue is the common interface of the discrete-time queue implementations.
type Queue interface {
	// Enqueue adds a task at the tail of the queue.
	Enqueue(*Task)
	// Step advances simulated time by dt seconds, invoking done for every
	// task that completes within the step, in completion order.
	Step(dt float64, done DoneFunc)
	// Waiting reports the number of tasks not yet in service.
	Waiting() int
	// InService reports the number of tasks currently being served.
	InService() int
	// Idle reports whether the queue holds no work at all.
	Idle() bool
	// Horizon reports the time in seconds until the queue's next internal
	// event (departure, or a share-changing latency expiry for PS queues)
	// assuming no further arrivals; +Inf when empty. Horizons bound
	// fast-forward jumps from below: undershooting is safe, overshooting
	// would skip an event and is a correctness bug.
	Horizon() float64
	// TakeBusy returns the accumulated busy time (in server-seconds for
	// FCFS queues, in seconds-of-transmission for PS queues) since the
	// last call, and resets the accumulator. Collectors call this once
	// per measurement window.
	TakeBusy() float64
}

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
