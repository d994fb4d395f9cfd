package queueing

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewPSPanics(t *testing.T) {
	cases := []struct {
		rate    float64
		k       int
		latency float64
	}{{0, 1, 0}, {1, 0, 0}, {1, 1, -1}, {math.NaN(), 1, 0}, {math.Inf(1), 1, 0}, {math.Inf(-1), 1, 0},
		{1, 1, math.NaN()}, {1, 1, math.Inf(1)}, {1, 1, math.Inf(-1)}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPS(%v,%d,%v) did not panic", c.rate, c.k, c.latency)
				}
			}()
			NewPS(c.rate, c.k, c.latency)
		}()
	}
}

func TestPSSingleTransfer(t *testing.T) {
	q := NewPS(100, 10, 0) // 100 units/sec
	q.Enqueue(&Task{ID: 1, Demand: 50})
	var done []*Task
	q.Step(0.5, collect(&done))
	if len(done) != 1 {
		t.Fatalf("50 units at 100/s should finish in 0.5s")
	}
}

func TestPSLatencyDelaysCompletion(t *testing.T) {
	q := NewPS(100, 10, 0.2)
	q.Enqueue(&Task{ID: 1, Demand: 50})
	var done []*Task
	q.Step(0.5, collect(&done)) // latency 0.2 + transfer 0.5 = 0.7 total
	if len(done) != 0 {
		t.Fatal("completed before latency + transfer elapsed")
	}
	q.Step(0.21, collect(&done))
	if len(done) != 1 {
		t.Fatalf("should complete at 0.7s, done=%d", len(done))
	}
}

func TestPSBandwidthSharing(t *testing.T) {
	// Two equal transfers share the link and finish together, taking twice
	// as long as one alone.
	q := NewPS(100, 10, 0)
	q.Enqueue(&Task{ID: 1, Demand: 50})
	q.Enqueue(&Task{ID: 2, Demand: 50})
	var done []*Task
	q.Step(0.99, collect(&done))
	if len(done) != 0 {
		t.Fatalf("shared transfers finished early: %d", len(done))
	}
	q.Step(0.02, collect(&done))
	if len(done) != 2 {
		t.Fatalf("both transfers should finish at 1.0s, done=%d", len(done))
	}
}

func TestPSConnectionLimitQueues(t *testing.T) {
	q := NewPS(100, 1, 0) // one connection at a time
	q.Enqueue(&Task{ID: 1, Demand: 50})
	q.Enqueue(&Task{ID: 2, Demand: 50})
	if q.InService() != 0 || q.Waiting() != 2 {
		t.Fatalf("pre-step: inService=%d waiting=%d", q.InService(), q.Waiting())
	}
	var done []*Task
	q.Step(0.5, collect(&done))
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("first transfer should finish alone at 0.5s: %v", done)
	}
	if q.InService() != 1 {
		t.Errorf("second transfer should now hold the slot")
	}
	q.Step(0.5, collect(&done))
	if len(done) != 2 {
		t.Fatalf("second transfer should finish at 1.0s")
	}
}

func TestPSWorkAccounting(t *testing.T) {
	q := NewPS(100, 4, 0)
	q.Enqueue(&Task{ID: 1, Demand: 30})
	var done []*Task
	q.Step(1, collect(&done))
	if w := q.TakeBusy(); math.Abs(w-30) > 1e-9 {
		t.Errorf("transmitted %v units, want 30", w)
	}
}

// Property: shared-rate completion order equals arrival order for equal
// demands (PS with equal demands preserves ordering), and total transmitted
// units equal total demand.
func TestPSConservation(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		q := NewPS(10, 4, 0.05)
		total := 0.0
		for i, r := range raw {
			d := float64(r%50)/10 + 0.1
			total += d
			q.Enqueue(&Task{ID: uint64(i), Demand: d})
		}
		var done []*Task
		for i := 0; i < 100000 && !q.Idle(); i++ {
			q.Step(0.02, collect(&done))
		}
		if len(done) != len(raw) {
			return false
		}
		return math.Abs(q.TakeBusy()-total) < 1e-6*float64(len(raw))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Cross-validation: a PS queue with a generous connection limit under
// Poisson/exponential traffic approaches the M/M/1-PS sojourn time.
func TestPSMatchesMM1PSTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("stochastic cross-validation skipped in -short")
	}
	lambda, mu := 0.6, 1.0
	q := NewPS(1.0, 1024, 0)
	rng := rand.New(rand.NewPCG(7, 7))
	res := Drive(q, 1, lambda, mu, 60000, 0.01, rng)
	want, err := MM1PS(lambda, mu, 0)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(res.MeanResponse-want) / want
	if relErr > 0.08 {
		t.Errorf("M/M/1-PS: simulated W=%.4f analytic W=%.4f relErr=%.1f%%",
			res.MeanResponse, want, relErr*100)
	}
}

func TestPSHorizon(t *testing.T) {
	q := NewPS(10, 4, 0.2)
	if h := q.Horizon(); !math.IsInf(h, 1) {
		t.Fatalf("empty queue horizon = %v, want +Inf", h)
	}
	q.Enqueue(&Task{ID: 1, Demand: 5})
	// Freshly admitted: the earliest event is the latency expiry, which
	// changes the bandwidth share — not yet a departure.
	if h := q.Horizon(); h != 0.2 {
		t.Fatalf("horizon = %v, want 0.2 (latency expiry)", h)
	}
	var done []*Task
	q.Step(0.2, collect(&done))
	// Latency elapsed; the transfer now runs at the full rate.
	if h := q.Horizon(); h != 0.5 {
		t.Fatalf("horizon = %v, want 0.5 (transfer completion)", h)
	}
}

// TestPSBulkStepBitIdentical mirrors the FCFS bulk test for the
// processor-sharing link: latency countdowns, share changes and transfer
// completions must land on the same ticks with bit-identical state.
func TestPSBulkStepBitIdentical(t *testing.T) {
	mk := func() *PS {
		q := NewPS(9.7, 2, 0.13)
		q.Enqueue(&Task{ID: 1, Demand: 17.3})
		q.Enqueue(&Task{ID: 2, Demand: 4.99})
		q.Enqueue(&Task{ID: 3, Demand: 7.1}) // waits for a slot
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
	if len(refDone) != 3 || len(bulkDone) != 3 {
		t.Fatalf("completions: ref %d bulk %d, want 3 each", len(refDone), len(bulkDone))
	}
	for i := range refDone {
		if refDone[i].ID != bulkDone[i].ID {
			t.Errorf("completion %d: ref ID %d bulk ID %d", i, refDone[i].ID, bulkDone[i].ID)
		}
	}
	if rw, bw := ref.TakeBusy(), bulk.TakeBusy(); rw != bw {
		t.Errorf("work accumulators differ: %v vs %v", rw, bw)
	}
}

// TestPSSlotsGrowAsOneBlock: a connection slot holds its task and the
// task's expiry offset within a Step side by side, so the slots a link's
// connections take grow as one block — one allocation per doubling, where
// an in-service slice and an offset slice grown apart cost two — and the
// first slot is the queue's own, so one connection costs none.
func TestPSSlotsGrowAsOneBlock(t *testing.T) {
	done := func(*Task) {}
	for _, n := range []int{1, 2, 5, 8, 33} {
		tasks := make([]Task, n)
		q := new(PS) // as it lives in its link: Init allocates nothing
		got := testing.AllocsPerRun(20, func() {
			q.Init(1e6, 64, 0.01)
			for i := range tasks {
				tasks[i] = Task{ID: uint64(i), Demand: 1e9}
				q.Enqueue(&tasks[i])
			}
			q.Step(0.001, done)
			q.Step(0.02, done)
			if q.InService() != n {
				t.Fatalf("%d of %d tasks hold a slot", q.InService(), n)
			}
		})
		if bound := math.Ceil(math.Log2(float64(n))); got > bound {
			t.Errorf("%d connections cost %v allocations, want at most %v", n, got, bound)
		}
	}
}
