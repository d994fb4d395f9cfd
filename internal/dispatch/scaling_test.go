package dispatch

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// busyAgent performs a fixed amount of CPU-bound work per step, emulating
// the handler cost of the thesis' implementation (whose day-long
// simulations ran for days of wall time — §4.3.4's per-agent work was
// orders of magnitude heavier than this port's queue stepping). The
// Chapter 4 speedup experiments are about amortizing coordination against
// that work, so the scaling tests use comparable per-agent cost.
type busyAgent struct {
	core.AgentBase
	state uint64
	spins int
}

func newBusyAgent(s *core.Simulation, spins int) *busyAgent {
	a := &busyAgent{state: 0x9e3779b97f4a7c15, spins: spins}
	a.InitAgent(s.NextAgentID(), "busy")
	s.AddAgent(a)
	return a
}

func (a *busyAgent) Step(dt float64) {
	x := a.state
	for i := 0; i < a.spins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	a.state = x
}

// Idle is false: dense-sweep agents do work every tick without queued tasks.
func (a *busyAgent) Idle() bool { return false }

// denseSweepSeconds measures the wall time of reference-loop ticks over a
// population of busy agents under the given engine.
func denseSweepSeconds(b testing.TB, eng core.Engine, agents, spins, ticks int) float64 {
	sim := core.NewSimulation(core.Config{Step: 0.01, Seed: 1, Engine: eng, LoopFlags: onReference})
	defer sim.Shutdown()
	for i := 0; i < agents; i++ {
		newBusyAgent(sim, spins)
	}
	start := time.Now()
	for i := 0; i < ticks; i++ {
		sim.Tick()
	}
	return time.Since(start).Seconds()
}

// TestHDispatchScalesOnDenseSweeps reproduces the shape of Table 4.2:
// with per-agent work that dominates coordination, H-Dispatch speeds up
// with worker threads while the classic Scatter-Gather stays flat
// (Table 4.1) because its per-agent active-message overhead is of the
// same order as the work itself.
func TestHDispatchScalesOnDenseSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	if runtime.NumCPU() < 8 {
		t.Skip("needs at least 8 cores for a meaningful measurement")
	}
	const agents, spins, ticks = 2048, 3000, 60

	seq := denseSweepSeconds(t, &core.SequentialEngine{}, agents, spins, ticks)

	hd8 := NewHDispatch(8, 64)
	hdTime := denseSweepSeconds(t, hd8, agents, spins, ticks)
	if speedup := seq / hdTime; speedup < 3 {
		t.Errorf("H-Dispatch 8-thread speedup = %.2fx on dense sweep, want > 3x (Table 4.2 reports 5.17x)", speedup)
	}

	sg8 := NewScatterGather(8)
	sgTime := denseSweepSeconds(t, sg8, agents, spins, ticks)
	t.Logf("dense sweep: sequential %.3fs, h-dispatch(8) %.3fs (%.2fx), scatter-gather(8) %.3fs (%.2fx)",
		seq, hdTime, seq/hdTime, sgTime, seq/sgTime)
}
