package scenarios

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
)

// SpeedupRow is one measured row of Table 4.1 / 4.2.
type SpeedupRow struct {
	Threads int
	Seconds float64
	Speedup float64
}

// Mechanism selects the parallelization engine for speedup measurement.
type Mechanism string

// The two mechanisms of Chapter 4.
const (
	ScatterGather Mechanism = "scatter-gather"
	HDispatch     Mechanism = "h-dispatch"
)

// MeasureEngineSpeedup reproduces the Table 4.1 / 4.2 experiments: it runs
// an identical slice of the consolidated-platform simulation (the workload
// of §4.3.4: six data centers, three applications, synchronization and
// indexing in the background) under the chosen mechanism with each thread
// count, and reports wall-clock times and speedups relative to the first
// entry. agentSet applies to H-Dispatch only (the thesis' best value is
// 64; pass 0 for that default). The slice runs on the reference loop: its
// per-tick sweep over every active agent is the phase the engines
// parallelize, and the production loop never calls them.
func MeasureEngineSpeedup(mech Mechanism, threads []int, simMinutes, scale float64,
	agentSet int) ([]SpeedupRow, error) {

	if len(threads) == 0 {
		return nil, fmt.Errorf("scenarios: no thread counts given")
	}
	rows := make([]SpeedupRow, 0, len(threads))
	for _, n := range threads {
		var eng core.Engine
		switch mech {
		case ScatterGather:
			eng = dispatch.NewScatterGather(n)
		case HDispatch:
			eng = dispatch.NewHDispatch(n, agentSet)
		default:
			return nil, fmt.Errorf("scenarios: unknown mechanism %q", mech)
		}
		cs, err := NewConsolidation(CaseConfig{
			Step:      0.01,
			Seed:      7,
			Engine:    eng,
			StartHour: 13, // run inside the global peak
			EndHour:   14,
			Scale:     scale,
			LoopFlags: core.LoopFlags{NoFastForward: true},
		})
		if err != nil {
			eng.Shutdown()
			return nil, err
		}
		start := time.Now()
		cs.Sim.RunFor(simMinutes * 60)
		elapsed := time.Since(start).Seconds()
		cs.Sim.Shutdown()
		rows = append(rows, SpeedupRow{Threads: n, Seconds: elapsed})
	}
	base := rows[0].Seconds
	for i := range rows {
		rows[i].Speedup = base / rows[i].Seconds
	}
	return rows, nil
}
