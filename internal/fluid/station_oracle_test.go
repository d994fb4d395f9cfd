package fluid

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/topology"
)

// oracleDeriveStation is DeriveStation as it was before stations were
// derived from a program table: every operation estimated by
// cascade.Estimate, which compiles it afresh into a plan of its own, under
// a NewBinding of its own.
func oracleDeriveStation(inf *topology.Infrastructure, local, master *topology.DataCenter,
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

// oraclePlatform is a Chapter-6-shaped pair of data centers: NA hosts every
// tier, EU only file servers, both a client population, one WAN link
// between them; every storage array caches, so estimates draw hit
// decisions.
func oraclePlatform(t *testing.T) (*core.Simulation, *topology.Infrastructure) {
	t.Helper()
	srv := topology.ServerSpec{
		CPU:     hardware.CPUSpec{Sockets: 1, Cores: 8, GHz: 2.5},
		MemGB:   32,
		NICGbps: 10,
		RAID: &hardware.RAIDSpec{
			Disks: 2, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
			CtrlGbps: 4, HitRate: 0.05,
		},
	}
	link := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	tier := func(name string, servers int) topology.TierSpec {
		return topology.TierSpec{Name: name, Servers: servers, Server: srv, LocalLink: link}
	}
	clients := topology.ClientSpec{Slots: 8, NICGbps: 1, GHz: 2.5, DiskMBs: 120}
	spec := topology.InfraSpec{
		DCs: []topology.DCSpec{
			{Name: "NA", SwitchGbps: 20, ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
				Tiers: []topology.TierSpec{tier("app", 3), tier("db", 2), tier("fs", 2), tier("idx", 1)}},
			{Name: "EU", SwitchGbps: 20, ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
				Tiers: []topology.TierSpec{tier("fs", 2)}},
		},
		WAN:     []topology.WANSpec{{From: "NA", To: "EU", Link: hardware.LinkSpec{Gbps: 1, LatencyMS: 40}}},
		Clients: map[string]topology.ClientSpec{"NA": clients, "EU": clients},
	}
	sim := core.NewSimulation(core.Config{Step: 0.01, Seed: 3})
	inf, err := topology.Build(sim, spec)
	if err != nil {
		sim.Shutdown()
		t.Fatal(err)
	}
	return sim, inf
}

// TestDeriveStationMatchesOracle: the station DeriveStation derives from a
// catalog's program table equals, bit for bit, the one the per-operation
// estimates of oracleDeriveStation give — bottleneck, Mu, Base, BaseP90 and
// every tier load — on the PDM, VIS and calibrated CAD catalogs, local and
// remote, uniform and weighted; and it leaves the platform where the oracle
// leaves it: client-slot cursors, round-robin cursors and the storage
// arrays' hit-draw streams.
func TestDeriveStationMatchesOracle(t *testing.T) {
	calSim, calInf := oraclePlatform(t)
	cad, err := apps.CalibratedCADOps(calInf, calInf.DC("NA"), calInf.DC("NA"), 0.01)
	calSim.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	catalogs := []struct {
		name string
		ops  []cascade.Op
	}{{"PDM", apps.PDMOps()}, {"VIS", apps.VISOps()}, {"CAD", cad}}
	for _, c := range catalogs {
		skewed := make([]float64, len(c.ops))
		for i := range skewed {
			skewed[i] = float64(i*i + 1)
		}
		for _, weights := range [][]float64{nil, skewed} {
			for _, local := range []string{"NA", "EU"} {
				name := fmt.Sprintf("%s from %s, weighted %v", c.name, local, weights != nil)
				oSim, oInf := oraclePlatform(t)
				nSim, nInf := oraclePlatform(t)
				want, err := oracleDeriveStation(oInf, oInf.DC(local), oInf.DC("NA"), c.ops, weights, 0.01)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				got, err := DeriveStation(nInf, nInf.DC(local), nInf.DC("NA"), c.ops, weights, 0.01)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if diff := stationDiff(got, want); diff != "" {
					t.Errorf("%s: %s", name, diff)
				}
				if diff := platformDiff(nInf, oInf, c.ops); diff != "" {
					t.Errorf("%s: after the derivation %s", name, diff)
				}
				oSim.Shutdown()
				nSim.Shutdown()
			}
		}
	}
}

// stationDiff describes how got differs from want, bit for bit; "" when
// they are equal.
func stationDiff(got, want Station) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.DC != want.DC || got.Tier != want.Tier || got.Cores != want.Cores ||
		!same(got.Mu, want.Mu) || !same(got.Base, want.Base) || !same(got.BaseP90, want.BaseP90) {
		return fmt.Sprintf("station %s/%s c=%d mu=%v base=%v p90=%v, oracle %s/%s c=%d mu=%v base=%v p90=%v",
			got.DC, got.Tier, got.Cores, got.Mu, got.Base, got.BaseP90,
			want.DC, want.Tier, want.Cores, want.Mu, want.Base, want.BaseP90)
	}
	if len(got.Tiers) != len(want.Tiers) {
		return fmt.Sprintf("%d tier loads, oracle %d", len(got.Tiers), len(want.Tiers))
	}
	for i, g := range got.Tiers {
		w := want.Tiers[i]
		if g.DC != w.DC || g.Tier != w.Tier || g.Cores != w.Cores || !same(g.SvcPerOp, w.SvcPerOp) {
			return fmt.Sprintf("tier load %d %+v, oracle %+v", i, g, w)
		}
	}
	return ""
}

// platformDiff describes where the state the derivations leave behind
// differs between got and want: the next client slot of each data center,
// the next server of each tier, and — through one more estimate of every
// operation, which draws hit decisions — the arrays' random streams.
func platformDiff(got, want *topology.Infrastructure, ops []cascade.Op) string {
	for _, name := range []string{"NA", "EU"} {
		g, w := got.DC(name), want.DC(name)
		if gs, ws := g.Clients.Next().Index, w.Clients.Next().Index; gs != ws {
			return fmt.Sprintf("%s's next client slot is %d, oracle %d", name, gs, ws)
		}
		for tier, gt := range g.Tiers {
			if gs, ws := gt.Pick().Name, w.Tier(tier).Pick().Name; gs != ws {
				return fmt.Sprintf("%s/%s picks %s next, oracle %s", name, tier, gs, ws)
			}
		}
	}
	for _, op := range ops {
		gd, gerr := cascade.Estimate(op, cascade.NewBinding(got, got.DC("EU"), got.DC("NA")), 0.01)
		wd, werr := cascade.Estimate(op, cascade.NewBinding(want, want.DC("EU"), want.DC("NA")), 0.01)
		if gerr != nil || werr != nil || math.Float64bits(gd) != math.Float64bits(wd) {
			return fmt.Sprintf("a later estimate of %s reads %v (%v), oracle %v (%v)", op.Name, gd, gerr, wd, werr)
		}
	}
	return ""
}
