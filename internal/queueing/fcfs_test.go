package queueing

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func collect(out *[]*Task) DoneFunc {
	return func(t *Task) { *out = append(*out, t) }
}

func TestNewFCFSPanics(t *testing.T) {
	cases := []struct {
		servers int
		rate    float64
	}{{0, 1}, {-1, 1}, {1, 0}, {1, -2}, {1, math.NaN()}, {1, math.Inf(1)}, {1, math.Inf(-1)}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFCFS(%d,%v) did not panic", c.servers, c.rate)
				}
			}()
			NewFCFS(c.servers, c.rate)
		}()
	}
}

// The rate and latency setters reject what the constructors reject: a rate
// must be positive and finite, a latency non-negative and finite. NaN fails
// every comparison, so each check is one conjunction that NaN cannot pass.
func TestQueueSettersPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	setters := []struct {
		name string
		set  func(float64)
		bad  []float64
	}{
		{"FCFS.SetRate", NewFCFS(1, 1).SetRate, []float64{0, -2, nan, inf, -inf}},
		{"PS.SetRate", NewPS(1, 1, 0).SetRate, []float64{0, -2, nan, inf, -inf}},
		{"PS.SetLatency", NewPS(1, 1, 0).SetLatency, []float64{-1, nan, inf, -inf}},
	}
	for _, c := range setters {
		for _, x := range c.bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%v) did not panic", c.name, x)
					}
				}()
				c.set(x)
			}()
		}
	}
}

func TestFCFSSingleTaskExactService(t *testing.T) {
	q := NewFCFS(1, 10) // 10 units/sec
	q.Enqueue(&Task{ID: 1, Demand: 5})
	var done []*Task
	q.Step(0.25, collect(&done)) // half the 0.5s service time
	if len(done) != 0 {
		t.Fatalf("task completed early")
	}
	q.Step(0.25, collect(&done))
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("task not completed after exact service time: %v", done)
	}
	if !q.Idle() {
		t.Error("queue should be idle")
	}
}

func TestFCFSFIFOOrder(t *testing.T) {
	q := NewFCFS(1, 1)
	for i := 1; i <= 5; i++ {
		q.Enqueue(&Task{ID: uint64(i), Demand: 1})
	}
	var done []*Task
	q.Step(10, collect(&done))
	if len(done) != 5 {
		t.Fatalf("completed %d, want 5", len(done))
	}
	for i, task := range done {
		if task.ID != uint64(i+1) {
			t.Errorf("completion %d has ID %d, want %d", i, task.ID, i+1)
		}
	}
}

func TestFCFSMultiServerParallelism(t *testing.T) {
	q := NewFCFS(2, 1)
	q.Enqueue(&Task{ID: 1, Demand: 1})
	q.Enqueue(&Task{ID: 2, Demand: 1})
	var done []*Task
	q.Step(1.0, collect(&done))
	if len(done) != 2 {
		t.Fatalf("two servers should finish both unit tasks in 1s, got %d", len(done))
	}
}

func TestFCFSSubStepCompletionChainsWork(t *testing.T) {
	// Two 0.5s tasks on one server must both finish within a single 1s step.
	q := NewFCFS(1, 1)
	q.Enqueue(&Task{ID: 1, Demand: 0.5})
	q.Enqueue(&Task{ID: 2, Demand: 0.5})
	var done []*Task
	q.Step(1.0, collect(&done))
	if len(done) != 2 {
		t.Fatalf("sub-step chaining broken: completed %d, want 2", len(done))
	}
}

func TestFCFSZeroDemandCompletesWithoutTime(t *testing.T) {
	q := NewFCFS(1, 1)
	q.Enqueue(&Task{ID: 1, Demand: 0})
	q.Enqueue(&Task{ID: 2, Demand: 1})
	var done []*Task
	q.Step(1.0, collect(&done))
	if len(done) != 2 {
		t.Fatalf("completed %d, want 2 (zero-demand must not consume time)", len(done))
	}
}

func TestFCFSBusyAccounting(t *testing.T) {
	q := NewFCFS(2, 1)
	q.Enqueue(&Task{ID: 1, Demand: 1})
	var done []*Task
	q.Step(2.0, collect(&done))
	busy := q.TakeBusy()
	if math.Abs(busy-1.0) > 1e-9 {
		t.Errorf("busy = %v, want 1.0 server-seconds", busy)
	}
	if again := q.TakeBusy(); again != 0 {
		t.Errorf("TakeBusy did not reset: %v", again)
	}
}

func TestFCFSCounters(t *testing.T) {
	q := NewFCFS(1, 1)
	q.Enqueue(&Task{ID: 1, Demand: 0.5})
	q.Enqueue(&Task{ID: 2, Demand: 0.5})
	if q.Arrivals() != 2 {
		t.Errorf("arrivals = %d, want 2", q.Arrivals())
	}
	var done []*Task
	q.Step(0.6, collect(&done))
	if len(done) != 1 {
		t.Errorf("departures = %d, want 1", len(done))
	}
	if q.Waiting() != 0 || q.InService() != 1 {
		t.Errorf("waiting=%d inService=%d, want 0/1", q.Waiting(), q.InService())
	}
}

// Property: work conservation — total demand enqueued equals busy time x rate
// once the queue drains, for any batch of positive demands.
func TestFCFSWorkConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		q := NewFCFS(3, 7)
		total := 0.0
		for i, r := range raw {
			d := float64(r%1000)/100 + 0.01
			total += d
			q.Enqueue(&Task{ID: uint64(i), Demand: d})
		}
		var done []*Task
		for i := 0; i < 100000 && !q.Idle(); i++ {
			q.Step(0.05, collect(&done))
		}
		if len(done) != len(raw) {
			return false
		}
		busy := q.TakeBusy()
		return math.Abs(busy*7-total) < 1e-6*float64(len(raw))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: completions never exceed arrivals and the queue reports Idle
// exactly when everything completed.
func TestFCFSIdleConsistency(t *testing.T) {
	f := func(n uint8, steps uint8) bool {
		q := NewFCFS(2, 2)
		count := int(n%20) + 1
		for i := 0; i < count; i++ {
			q.Enqueue(&Task{ID: uint64(i), Demand: 1})
		}
		var done []*Task
		for i := 0; i < int(steps%50); i++ {
			q.Step(0.1, collect(&done))
		}
		if len(done) > count {
			return false
		}
		return q.Idle() == (len(done) == count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Cross-validation: discrete-time FCFS under Poisson/exponential traffic
// reproduces analytic M/M/1 and M/M/c mean response times.
func TestFCFSMatchesMMcTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("stochastic cross-validation skipped in -short")
	}
	cases := []struct {
		servers int
		lambda  float64
		mu      float64
	}{
		{1, 0.5, 1.0},
		{1, 0.8, 1.0},
		{4, 2.4, 1.0},
	}
	for _, c := range cases {
		q := NewFCFS(c.servers, 1.0) // rate 1 unit/sec, demand in service-seconds
		rng := rand.New(rand.NewPCG(42, uint64(c.servers)))
		res := Drive(q, c.servers, c.lambda, c.mu, 60000, 0.01, rng)
		m := MMc{C: c.servers, Lambda: c.lambda, Mu: c.mu}
		want, err := m.MeanResponse()
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(res.MeanResponse-want) / want
		if relErr > 0.08 {
			t.Errorf("M/M/%d lambda=%v: simulated W=%.4f analytic W=%.4f relErr=%.1f%%",
				c.servers, c.lambda, res.MeanResponse, want, relErr*100)
		}
		wantUtil := m.Utilization()
		if math.Abs(res.Utilization-wantUtil) > 0.03 {
			t.Errorf("M/M/%d utilization: simulated %.3f analytic %.3f",
				c.servers, res.Utilization, wantUtil)
		}
	}
}

func TestFCFSHorizon(t *testing.T) {
	q := NewFCFS(2, 10)
	if h := q.Horizon(); !math.IsInf(h, 1) {
		t.Fatalf("empty queue horizon = %v, want +Inf", h)
	}
	q.Enqueue(&Task{ID: 1, Demand: 5})  // 0.5 s
	q.Enqueue(&Task{ID: 2, Demand: 20}) // 2.0 s
	q.Enqueue(&Task{ID: 3, Demand: 1})  // waits for a server
	if h := q.Horizon(); h != 0.5 {
		t.Fatalf("horizon = %v, want 0.5 (earliest in-service completion)", h)
	}
	// Horizon promoted the first two tasks into service, exactly as the
	// next Step would have; the third still waits.
	if q.InService() != 2 || q.Waiting() != 1 {
		t.Fatalf("after Horizon: in-service %d waiting %d, want 2 and 1", q.InService(), q.Waiting())
	}
	// A waiting task never bounds the horizon: it starts service only
	// after a departure, which is itself the earlier event.
	var done []*Task
	q.Step(0.5, collect(&done))
	if len(done) != 1 {
		t.Fatalf("completed %d, want 1", len(done))
	}
	if h := q.Horizon(); h != 0.1 {
		t.Fatalf("horizon after refill = %v, want 0.1", h)
	}
}

// TestFCFSBulkStepBitIdentical drives one queue with per-tick Steps and a
// clone with horizon-bounded BulkStep windows, asserting bit-identical demands and
// busy accumulation — the contract the fast-forward replay relies on.
func TestFCFSBulkStepBitIdentical(t *testing.T) {
	mk := func() *FCFS {
		q := NewFCFS(3, 7.3)
		q.Enqueue(&Task{ID: 1, Demand: 11.13})
		q.Enqueue(&Task{ID: 2, Demand: 29.7})
		q.Enqueue(&Task{ID: 3, Demand: 5.21})
		q.Enqueue(&Task{ID: 4, Demand: 8.8}) // waiting
		return q
	}
	const dt = 0.01
	ref, bulk := mk(), mk()
	var refDone, bulkDone []*Task
	steps := 0
	for !bulk.Idle() && steps < 10000 {
		n := 1
		for w := 2; w <= 64; w *= 2 {
			if quiet(bulk, w, dt) {
				n = w
			}
		}
		if n == 1 {
			bulk.Step(dt, collect(&bulkDone))
		} else {
			bulk.BulkStep(n, dt)
		}
		for i := 0; i < n; i++ {
			ref.Step(dt, collect(&refDone))
		}
		steps += n
	}
	if !ref.Idle() {
		t.Fatalf("reference queue still busy after %d ticks", steps)
	}
	if len(refDone) != 4 || len(bulkDone) != 4 {
		t.Fatalf("completions: ref %d bulk %d, want 4 each", len(refDone), len(bulkDone))
	}
	for i := range refDone {
		if refDone[i].ID != bulkDone[i].ID {
			t.Errorf("completion %d: ref ID %d bulk ID %d", i, refDone[i].ID, bulkDone[i].ID)
		}
	}
	if rb, bb := ref.TakeBusy(), bulk.TakeBusy(); rb != bb {
		t.Errorf("busy accumulators differ: %v vs %v", rb, bb)
	}
}
