package topology

import "repro/internal/core"

// isolatedCoster is a stage agent that knows the contention-free time one
// task of the given demand spends in it when it runs alone, step being the
// simulation's tick. Every hardware agent implements it.
type isolatedCoster interface {
	IsolatedCost(demand, step float64) float64
}

// PlanDuration returns the isolated (contention-free) duration of a message
// plan: the sum of stage service times plus the discrete-time forwarding
// overhead of one step per stage boundary. It is the analytic counterpart
// of executing the plan alone on an idle infrastructure, used to calibrate
// canonical operation costs against the durations the thesis reports
// (Table 5.1) — the inverse of the paper's profiling step, which measured
// canonical costs from observed isolated durations. A delay line costs the
// stage's Demand, its latency; any other stage agent must be an
// isolatedCoster.
func PlanDuration(plan core.MessagePlan, step float64) float64 {
	total := 0.0
	for _, st := range plan.Stages {
		switch q := st.Queue.(type) {
		case nil:
		case *core.DelayLine:
			total += st.Demand
		default:
			total += q.(isolatedCoster).IsolatedCost(st.Demand, step)
		}
		total += step // per-stage forwarding: work enqueued at tick t serves at t+1
	}
	return total
}
