package queueing

// chains replays a bulk window on up to four accumulators at a time. A
// quiet tick does one constant subtraction per accumulator — a task's
// remaining demand, a latency countdown, a busy total — and n ticks make
// that a dependent chain of n subtractions each. Run one after another the
// chains serialize on the floating-point latency; walked tick-major, four
// abreast, they overlap in the pipeline. Every accumulator still receives
// exactly its own n subtractions of its own constant, in order, so the
// result is bit-identical to stepping tick by tick. (An accumulator that
// adds, like FCFS.busy, rides as a subtraction of the negated constant,
// which IEEE 754 defines as the same operation.)
type chains struct {
	n   int // ticks to replay
	k   int // lanes filled
	acc [4]*float64
	w   [4]float64
}

// add queues *acc -= w, n times, running the batch when four are queued.
func (c *chains) add(acc *float64, w float64) {
	c.acc[c.k], c.w[c.k] = acc, w
	if c.k++; c.k == len(c.acc) {
		c.flush()
	}
}

// flush runs the queued lanes. Unfilled lanes compute on stale values that
// are never stored.
func (c *chains) flush() {
	var a [4]float64
	for j := 0; j < c.k; j++ {
		a[j] = *c.acc[j]
	}
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	w0, w1, w2, w3 := c.w[0], c.w[1], c.w[2], c.w[3]
	for i := 0; i < c.n; i++ {
		a0 -= w0
		a1 -= w1
		a2 -= w2
		a3 -= w3
	}
	a = [4]float64{a0, a1, a2, a3}
	for j := 0; j < c.k; j++ {
		*c.acc[j] = a[j]
	}
	c.k = 0
}
