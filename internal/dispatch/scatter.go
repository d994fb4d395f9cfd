// Package dispatch implements the two parallelization mechanisms evaluated
// in Chapter 4 of the thesis as pluggable core.Engine implementations:
//
//   - ScatterGather (§4.3.4): one active message per agent per sweep is
//     posted to the agent's port and executed by a shared dispatcher thread
//     pool; acknowledgements are gathered with a multiple-item receiver.
//     The per-message overhead dominates the tiny per-agent work, which is
//     why Table 4.1 shows no speedup — a behaviour this implementation
//     reproduces.
//
//   - HDispatch (§4.3.5, after Holmes et al.): a fixed pool of worker
//     threads pulls Agent Sets (default 64 agents) from a global queue
//     until it drains, amortizing coordination overhead and reusing local
//     state. Table 4.2 shows the resulting multicore speedup.
//
// Both parallelize the sweep of the reference loop (core's
// LoopFlags.NoFastForward), where every tick steps every active agent — the
// loop Chapter 4 measured. The production window loop steps a handful of
// agents per window itself and never calls an engine. Sharded is a third
// Engine kept only for the benchmark harness (bench/).
package dispatch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ports"
)

// sweepMsg is the time-increment (or collection) control signal scattered
// to each agent port (Fig. 4-3). It carries the handler to execute and the
// synchronization port to acknowledge on.
type sweepMsg struct {
	fn  func(core.Agent)
	ack *ports.Port[core.AgentID]
}

// ScatterGather is the classic scatter-gather engine: one port per bound
// agent, one active message per *active* agent per sweep. Ports are built
// once per Bind and indexed by AgentID; each sweep only posts to the ports
// of the agents in the active slice, and the single reusable gatherer is
// re-armed for that count instead of being reallocated every tick.
type ScatterGather struct {
	threads    int
	disp       *ports.Dispatcher
	agentPorts []*ports.Port[sweepMsg] // indexed by AgentID
	gather     *ports.Gather[core.AgentID]
}

// NewScatterGather creates the engine with the given dispatcher thread-pool
// size. Panics on a non-positive thread count.
func NewScatterGather(threads int) *ScatterGather {
	if threads <= 0 {
		panic(fmt.Sprintf("dispatch: ScatterGather needs threads > 0, got %d", threads))
	}
	return &ScatterGather{threads: threads}
}

// Bind creates one port per agent, each with a persistent receiver that
// executes the scattered handler and posts an acknowledgement.
func (e *ScatterGather) Bind(agents []core.Agent) {
	if e.disp == nil {
		e.disp = ports.NewDispatcher(e.threads, 4096)
	}
	e.agentPorts = make([]*ports.Port[sweepMsg], len(agents))
	for i, a := range agents {
		a := a
		p := ports.NewPort[sweepMsg](e.disp)
		ports.Receive(p, true, func(m sweepMsg) {
			m.fn(a)
			m.ack.Post(a.ID())
		})
		e.agentPorts[i] = p
	}
}

// Sweep scatters one message per active agent and blocks until all of them
// have acknowledged (the gather step).
func (e *ScatterGather) Sweep(active []core.Agent, fn func(core.Agent)) {
	if len(active) == 0 {
		return
	}
	if e.gather == nil {
		e.gather = ports.NewGather[core.AgentID](e.disp, len(active))
	} else {
		e.gather.Reset(len(active))
	}
	m := sweepMsg{fn: fn, ack: e.gather.Port()}
	for _, a := range active {
		e.agentPorts[a.ID()].Post(m)
	}
	e.gather.Wait()
}

// Shutdown stops the dispatcher thread pool.
func (e *ScatterGather) Shutdown() {
	if e.disp != nil {
		e.disp.Shutdown()
		e.disp = nil
	}
}

var _ core.Engine = (*ScatterGather)(nil)
