package core

// Exports for the external test package (core_test), which exists because
// its tests drive the sharded runtime through packages that import core:
// dispatch.Sharded's real workers (grain_bench_test.go) and the scenario
// platforms on real topology and hardware agents (scenario_test.go).

// ForcedGrain wraps a shard engine so that a simulation built on it runs
// with the given grain instead of shardGrain: 0 forks every admissible span,
// math.MaxInt none. Scenario constructors take an engine and build the
// simulation themselves, so the engine is how the override travels.
type ForcedGrain struct {
	ShardRunner
	Grain int
}

func (f ForcedGrain) forcedGrain() int { return f.Grain }

// DenseRing is denseRing on the production loop with the grain gate forced.
func DenseRing(eng ShardRunner, grain, dcs, per int, seconds float64) *Simulation {
	return denseRing(Config{Engine: ForcedGrain{eng, grain}}, dcs, per, nil, seconds, nil)
}

// InSpan reports whether the caller runs inside a stretched span — on a
// shard lane, between barriers.
func (s *Simulation) InSpan() bool { return s.sh != nil && s.sh.inSpan }
