package queueing

import (
	"math"
	"math/rand/v2"
)

// DriveResult summarizes a stochastic drive of a queue, used to cross-check
// the discrete-time queue implementations against analytic M/M/c results.
type DriveResult struct {
	Completed    int
	MeanResponse float64 // mean sojourn time (arrival to completion)
	Utilization  float64 // busy server-seconds / (servers x horizon)
}

// Drive feeds a queue Poisson arrivals (rate lambda) with exponential
// demands (mean demand mean = rate/mu units so that service time is
// Exp(mu)), stepping the queue with step dt for the given horizon. It
// returns completion statistics. The rng makes runs deterministic. The
// tests validate FCFS and PS queues through it against the closed-form
// M/M/c formulas.
func Drive(q Queue, servers int, lambda, mu, horizon, dt float64, rng *rand.Rand) DriveResult {
	type rec struct{ arrive float64 }
	started := map[uint64]rec{}
	var sumResp float64
	completed := 0
	busy := 0.0

	nextArrival := expSample(rng, lambda)
	var nextID uint64
	now := 0.0
	rate := queueRate(q)
	for now < horizon {
		stepEnd := now + dt
		for nextArrival <= stepEnd {
			// Enqueue at step granularity; arrival-time bookkeeping keeps
			// the exact arrival instant for response-time accounting.
			nextID++
			demand := expSample(rng, mu) * rate
			t := &Task{ID: nextID, Demand: demand}
			started[t.ID] = rec{arrive: nextArrival}
			q.Enqueue(t)
			nextArrival += expSample(rng, lambda)
		}
		q.Step(dt, func(t *Task) {
			r := started[t.ID]
			delete(started, t.ID)
			sumResp += stepEnd - r.arrive
			completed++
		})
		now = stepEnd
	}
	busy = q.TakeBusy()
	if ps, ok := q.(*PS); ok {
		// PS accumulates transmitted units; convert to seconds of
		// full-rate transmission so utilization is comparable.
		busy /= ps.Rate()
		servers = 1
	}
	res := DriveResult{Completed: completed}
	if completed > 0 {
		res.MeanResponse = sumResp / float64(completed)
	}
	if servers > 0 && horizon > 0 {
		res.Utilization = busy / (float64(servers) * horizon)
	}
	return res
}

func queueRate(q Queue) float64 {
	switch v := q.(type) {
	case *FCFS:
		return v.Rate()
	case *PS:
		return v.Rate()
	default:
		return 1
	}
}

func expSample(rng *rand.Rand, rate float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}
