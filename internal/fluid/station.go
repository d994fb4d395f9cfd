package fluid

import (
	"fmt"
	"sort"

	"repro/internal/cascade"
	"repro/internal/topology"
)

// TierLoad is the CPU demand one operation of the mix places on one server
// tier — the per-tier accounting behind both the bottleneck choice and the
// utilization reservations.
type TierLoad struct {
	DC, Tier string
	Cores    int
	// SvcPerOp is the weighted core-seconds one operation demands on this
	// tier at the healthy core rate.
	SvcPerOp float64
}

// Station is the single-bottleneck M/M/c abstraction of a workload's
// cascade: the tier with the highest utilization per unit arrival rate
// provides c and mu, while Base/BaseP90 carry the isolated (zero-load)
// cascade duration so the analytic response composes "measured base plus
// queueing delay at the bottleneck" — comparable with the simulated
// response times, which include client and network time the M/M/c model
// alone would miss.
type Station struct {
	DC, Tier string  // bottleneck tier identity
	Cores    int     // c
	Mu       float64 // per-core service rate at the bottleneck, ops/second
	Base     float64 // weighted mean isolated cascade duration, seconds
	BaseP90  float64 // weighted p90 isolated cascade duration, seconds
	Tiers    []TierLoad
}

// reserveFracs sizes the per-tier capacity reservations for a segment's
// ceiling arrival rate. The bottleneck fraction equals the segment's
// ceiling utilization, which the saturation guard keeps strictly below
// one; every other tier's fraction is smaller by construction.
func (st Station) reserveFracs(lamCeil float64) []float64 {
	fr := make([]float64, len(st.Tiers))
	for i, tl := range st.Tiers {
		fr[i] = lamCeil * tl.SvcPerOp / float64(tl.Cores)
	}
	return fr
}

// DeriveStation reduces an operation mix under a (local, master) binding to
// its Station: per-tier CPU demands resolved the way cascade bindings
// resolve sites (master-tier fallback for tiers the chosen site lacks),
// isolated durations from cascade.Estimate. Weights follow the workload
// convention (nil selects a uniform mix). Like a real expansion, Estimate
// consumes cache hit-decision randomness and advances the balancer
// cursors; DeriveStation therefore runs at compile time, where the
// consumption is deterministic.
func DeriveStation(inf *topology.Infrastructure, local, master *topology.DataCenter,
	ops []cascade.Op, weights []float64, step float64) (Station, error) {
	if len(ops) == 0 {
		return Station{}, fmt.Errorf("fluid: empty operation mix")
	}
	if weights != nil && len(weights) != len(ops) {
		return Station{}, fmt.Errorf("fluid: %d weights for %d operations", len(weights), len(ops))
	}
	wts := make([]float64, len(ops))
	total := 0.0
	for i := range ops {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		wts[i] = w
		total += w
	}
	if total <= 0 {
		return Station{}, fmt.Errorf("fluid: operation weights sum to zero")
	}
	for i := range wts {
		wts[i] /= total
	}

	type key struct{ dc, tier string }
	demand := map[key]float64{}
	for i, op := range ops {
		for _, stp := range op.Steps {
			for _, m := range stp {
				role := m.To.Role
				if role == cascade.Client || role == cascade.Daemon {
					// Client cores scale with the population and daemon work
					// is not driven by this flow — neither is shared tier
					// capacity to reserve.
					continue
				}
				tier := cascade.TierFor(m.To, local, master)
				if tier == nil {
					return Station{}, fmt.Errorf("fluid: operation %s needs tier %q at %s or %s",
						op.Name, role, local.Name, master.Name)
				}
				rate := tier.Servers[0].CPU.Rate()
				demand[key{tier.DC.Name, tier.Name}] += wts[i] * m.Cost.CPUCycles / rate
			}
		}
	}
	if len(demand) == 0 {
		return Station{}, fmt.Errorf("fluid: operation mix places no CPU demand on any server tier")
	}

	keys := make([]key, 0, len(demand))
	for k := range demand {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dc != keys[j].dc {
			return keys[i].dc < keys[j].dc
		}
		return keys[i].tier < keys[j].tier
	})
	st := Station{}
	bottleneck := -1.0
	for _, k := range keys {
		tl := TierLoad{
			DC: k.dc, Tier: k.tier,
			Cores:    inf.DC(k.dc).Tier(k.tier).TotalCores(),
			SvcPerOp: demand[k],
		}
		st.Tiers = append(st.Tiers, tl)
		if u := tl.SvcPerOp / float64(tl.Cores); u > bottleneck {
			bottleneck = u
			st.DC, st.Tier = tl.DC, tl.Tier
			st.Cores = tl.Cores
			st.Mu = 1 / tl.SvcPerOp
		}
	}

	durs := make([]float64, len(ops))
	for i := range ops {
		b := cascade.NewBinding(inf, local, master)
		d, err := cascade.Estimate(ops[i], b, step)
		if err != nil {
			return Station{}, fmt.Errorf("fluid: estimating %s: %w", ops[i].Name, err)
		}
		durs[i] = d
		st.Base += wts[i] * d
	}
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return durs[idx[a]] < durs[idx[b]] })
	cum := 0.0
	st.BaseP90 = durs[idx[len(idx)-1]]
	for _, i := range idx {
		cum += wts[i]
		if cum >= 0.90 {
			st.BaseP90 = durs[i]
			break
		}
	}
	return st, nil
}
