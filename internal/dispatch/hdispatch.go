package dispatch

import (
	"fmt"

	"repro/internal/core"
)

// DefaultAgentSet is the agent-set size that delivered the best results in
// the thesis (Table 4.2: "An Agent Set of size 64 delivered the best
// results").
const DefaultAgentSet = 64

// HDispatch is the pull-based engine of Holmes et al. adapted to GDISim
// (§4.3.5): a pool of worker goroutines equal in number to the configured
// thread count stays alive for the engine's lifetime, and each sweep cuts
// the active slice into agent sets that the workers pull until none is
// left. Only agents with in-flight work are ever dispatched.
type HDispatch struct {
	pool    *pool
	setSize int
}

// NewHDispatch creates the engine with the given worker count and agent-set
// size; setSize <= 0 selects DefaultAgentSet. Panics on non-positive threads.
func NewHDispatch(threads, setSize int) *HDispatch {
	if threads <= 0 {
		panic(fmt.Sprintf("dispatch: engine needs threads > 0, got %d", threads))
	}
	if setSize <= 0 {
		setSize = DefaultAgentSet
	}
	return &HDispatch{pool: newPool(threads), setSize: setSize}
}

// NewScatterGather creates the classic Scatter-Gather engine of §4.3.4 with
// the given thread count: one work item per active agent per sweep, which
// is H-Dispatch at an agent-set size of 1. Panics on non-positive threads.
func NewScatterGather(threads int) *HDispatch { return NewHDispatch(threads, 1) }

// Bind is a no-op: agent sets are cut from the active slice per sweep, so
// the engine holds no per-population state.
func (e *HDispatch) Bind(agents []core.Agent) {}

// Sweep cuts the active slice into agent sets and blocks until the workers
// have stepped every set, each set in order on one worker.
func (e *HDispatch) Sweep(active []core.Agent, fn func(core.Agent)) {
	n, k := len(active), e.setSize
	e.pool.run((n+k-1)/k, func(s int) {
		for _, a := range active[s*k : min(s*k+k, n)] {
			fn(a)
		}
	})
}

// Shutdown stops the workers. Idempotent; the engine must not be used
// afterwards — Sweep then panics.
func (e *HDispatch) Shutdown() { e.pool.shutdown() }

var _ core.Engine = (*HDispatch)(nil)
