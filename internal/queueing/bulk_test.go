package queueing

import (
	"fmt"
	"math"
	"testing"
)

// bulkWindows are the window lengths the lane tests replay: one tick, an
// even and an odd short window, a typical jump and a very long one.
var bulkWindows = []int{1, 2, 7, 100, 4096}

// quiet reports whether an n-tick window of dt seconds meets BulkStep's
// precondition on q: its next event lies beyond the window by the 1e-6 s
// the production loop leaves (core's ffGuard). Like Step, it promotes
// waiting tasks first.
func quiet(q interface{ Horizon() float64 }, n int, dt float64) bool {
	return q.Horizon() > float64(n)*dt+1e-6
}

// sameBits compares the float state two queues expose task by task.
func sameBits(t *testing.T, what string, ref, bulk []*Task) {
	t.Helper()
	for i := range ref {
		if math.Float64bits(ref[i].Demand) != math.Float64bits(bulk[i].Demand) ||
			math.Float64bits(ref[i].Delay) != math.Float64bits(bulk[i].Delay) {
			t.Errorf("%s task %d: demand %v delay %v, stepped tick by tick %v %v",
				what, i, bulk[i].Demand, bulk[i].Delay, ref[i].Demand, ref[i].Delay)
		}
	}
}

// BulkStep replays each accumulator in its own loop: with 1 to 9 tasks in
// service, the busy total and every demand must come out bit-identical to n
// single steps.
func TestFCFSBulkStepLanes(t *testing.T) {
	const dt = 0.01
	noDone := func(*Task) { t.Fatal("a task completed inside a bulk window") }
	for k := 1; k <= 9; k++ {
		for _, n := range bulkWindows {
			mk := func() (*FCFS, []*Task) {
				q := NewFCFS(k, 7.3)
				ts := make([]*Task, k)
				for i := range ts {
					ts[i] = &Task{ID: uint64(i), Demand: 400 + 13.7*float64(i)}
					q.Enqueue(ts[i])
				}
				return q, ts
			}
			ref, refTasks := mk()
			bulk, bulkTasks := mk()
			if !quiet(bulk, n, dt) {
				t.Fatalf("k=%d n=%d: window not bulkable", k, n)
			}
			bulk.BulkStep(n, dt)
			for i := 0; i < n; i++ {
				ref.Step(dt, noDone)
			}
			what := fmt.Sprintf("k=%d n=%d", k, n)
			sameBits(t, what, refTasks, bulkTasks)
			if rb, bb := ref.TakeBusy(), bulk.TakeBusy(); math.Float64bits(rb) != math.Float64bits(bb) {
				t.Errorf("%s: busy %v, stepped tick by tick %v", what, bb, rb)
			}
		}
	}
}

// The PS form of the lane test, with the tasks split across the two phases:
// the first j hold a slot in their transfer phase (their latency was zero),
// the rest count down a latency longer than any window — so latency
// countdowns, shared-bandwidth demands and the work total, at every
// transferring count from 0 to k, are all replayed.
func TestPSBulkStepLanes(t *testing.T) {
	const dt = 0.01
	noDone := func(*Task) { t.Fatal("a task completed inside a bulk window") }
	for k := 1; k <= 9; k++ {
		for j := 0; j <= k; j++ {
			for _, n := range bulkWindows {
				mk := func() (*PS, []*Task) {
					q := NewPS(9.7, k, 0)
					ts := make([]*Task, k)
					for i := range ts {
						if i == j {
							q.SetLatency(50 + 0.37*float64(k))
						}
						ts[i] = &Task{ID: uint64(i), Demand: 5000 + 17.9*float64(i)}
						q.Enqueue(ts[i])
					}
					return q, ts
				}
				ref, refTasks := mk()
				bulk, bulkTasks := mk()
				if !quiet(bulk, n, dt) {
					t.Fatalf("k=%d j=%d n=%d: window not bulkable", k, j, n)
				}
				bulk.BulkStep(n, dt)
				for i := 0; i < n; i++ {
					ref.Step(dt, noDone)
				}
				what := fmt.Sprintf("k=%d transferring=%d n=%d", k, j, n)
				sameBits(t, what, refTasks, bulkTasks)
				if rw, bw := ref.TakeBusy(), bulk.TakeBusy(); math.Float64bits(rw) != math.Float64bits(bw) {
					t.Errorf("%s: work %v, stepped tick by tick %v", what, bw, rw)
				}
			}
		}
	}
}
