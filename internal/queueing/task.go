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

// fifo is a simple slice-backed FIFO with amortized O(1) operations.
type fifo struct {
	items []*Task
	head  int
}

func (f *fifo) push(t *Task) { f.items = append(f.items, t) }

func (f *fifo) pop() *Task {
	if f.head >= len(f.items) {
		return nil
	}
	t := f.items[f.head]
	f.items[f.head] = nil
	f.head++
	// An emptied queue rewinds in place, so a lightly loaded queue never
	// grows; otherwise reclaim space once the consumed prefix dominates.
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return t
}

func (f *fifo) len() int { return len(f.items) - f.head }
