package topology

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/metrics"
)

// oracleBuildDC is buildDC as it was before tiers were slabbed: every
// server holon and each of its components allocated on its own, named with
// Sprintf and concatenations. It is the oracle for the agent IDs, names and
// memory seeds the slabbed build must reproduce.
func oracleBuildDC(sim *core.Simulation, spec DCSpec) *DataCenter {
	dc := &DataCenter{
		Name:   spec.Name,
		Switch: hardware.NewSwitch(sim, "sw:"+spec.Name, spec.SwitchGbps),
		Tiers:  make(map[string]*Tier),
		Daemon: core.NewDelayLine(sim, "daemon:"+spec.Name),
	}
	dc.ClientLink = hardware.NewLink(sim, fmt.Sprintf("clink:%s", spec.Name), spec.ClientLink)
	for _, ts := range spec.Tiers {
		tier := &Tier{Name: ts.Name, DC: dc}
		for i := 0; i < ts.Servers; i++ {
			name := fmt.Sprintf("%s:%s:%d", spec.Name, ts.Name, i)
			srv := &Server{
				Name: name,
				CPU:  hardware.NewCPU(sim, "cpu:"+name, ts.Server.CPU),
				Mem: hardware.NewMemory(ts.Server.MemGB*1e9, ts.Server.CacheHitRate,
					core.DeriveSeed(sim.Seed(), uint64(sim.NextAgentID())*2654435761+uint64(i))),
				NIC:  hardware.NewNIC(sim, "nic:"+name, ts.Server.NICGbps),
				Link: hardware.NewLink(sim, "llink:"+name, ts.LocalLink),
				Tier: tier,
			}
			if ts.Server.RAID != nil {
				srv.RAID = hardware.NewRAID(sim, "raid:"+name, *ts.Server.RAID)
			}
			tier.Servers = append(tier.Servers, srv)
		}
		if ts.SAN != nil {
			tname := spec.Name + ":" + ts.Name
			tier.SAN = hardware.NewSAN(sim, "san:"+tname, *ts.SAN)
			tier.SANLink = hardware.NewLink(sim, "slink:"+tname, *ts.SANLink)
		}
		dc.Tiers[ts.Name] = tier
	}
	return dc
}

// chaosSpec reads the infrastructure of the chaos scenario document.
func chaosSpec(t testing.TB) InfraSpec {
	t.Helper()
	raw, err := os.ReadFile("../../examples/chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Infrastructure InfraSpec `json:"infrastructure"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Infrastructure
}

// wideSpec is one data center with a RAID tier of n servers (two
// four-core sockets each, memories that hit 30% of the time, so each draws
// from its own seed) and a SAN tier of one.
func wideSpec(n int) InfraSpec {
	s := twoDCSpec()
	dc := s.DCs[0]
	dc.Tiers = append([]TierSpec(nil), dc.Tiers...)
	dc.Tiers[0].Servers = n
	dc.Tiers[0].Server.CacheHitRate = 0.3
	return InfraSpec{DCs: []DCSpec{dc}}
}

// agentLabel identifies a registered agent.
type agentLabel struct {
	ID   core.AgentID
	Name string
}

func label(a core.Agent) agentLabel { return agentLabel{a.ID(), a.Name()} }

// dcLayout is everything a data center's build fixes: the IDs and names of
// its agents, in tier and server order, the component specs and the first
// draws of every memory's cache-hit stream.
func dcLayout(dc *DataCenter, tierOrder []string) []any {
	out := []any{label(dc.Switch), label(dc.Daemon), label(dc.ClientLink), len(dc.Tiers)}
	for _, name := range tierOrder {
		tier := dc.Tiers[name]
		out = append(out, tier.Name, tier.DC == dc, len(tier.Servers))
		for _, s := range tier.Servers {
			out = append(out, s.Name, s.Tier == tier, label(s.CPU), s.CPU.Spec(), label(s.NIC), s.NIC.Rate(),
				label(s.Link), s.Link.Rate(), s.Link.Latency(), s.Mem.Capacity())
			if s.RAID != nil {
				out = append(out, label(s.RAID), s.RAID.Spec())
			}
			var hits [64]bool
			for i := range hits {
				hits[i] = s.Mem.Hit()
			}
			out = append(out, hits)
		}
		if tier.SAN != nil {
			out = append(out, label(tier.SAN), tier.SAN.Spec(), label(tier.SANLink))
		}
	}
	return out
}

// TestBuildDCMatchesOracle: the slabbed build registers every agent under
// the ID and name one by one construction gave it, in the same order, and
// seeds every memory alike.
func TestBuildDCMatchesOracle(t *testing.T) {
	for name, spec := range map[string]InfraSpec{"twoDC": twoDCSpec(), "chaos": chaosSpec(t), "wide": wideSpec(37)} {
		slab, oracle := core.NewSimulation(core.Config{Seed: 9}), core.NewSimulation(core.Config{Seed: 9})
		for _, d := range spec.DCs {
			var order []string
			for _, ts := range d.Tiers {
				order = append(order, ts.Name)
			}
			got, want := dcLayout(buildDC(slab, d), order), dcLayout(oracleBuildDC(oracle, d), order)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: DC %s built from slabs differs from the one by one build", name, d.Name)
			}
		}
		if slab.AgentCount() != oracle.AgentCount() {
			t.Errorf("%s: %d agents registered, want %d", name, slab.AgentCount(), oracle.AgentCount())
		}
		slab.Shutdown()
		oracle.Shutdown()
	}
}

// buildAllocs returns what building spec on a fresh simulation allocates.
func buildAllocs(spec InfraSpec) float64 {
	return testing.AllocsPerRun(20, func() {
		sim := core.NewSimulation(core.Config{})
		if _, err := Build(sim, spec); err != nil {
			panic(err)
		}
		sim.Shutdown()
	})
}

// TestTierSlabs: a tier's servers and their components are slabs, what
// their CPUs and RAIDs repeat is carved from one hardware.Parts per tier,
// and Build reserves the simulation's agent tables for its census up
// front, so an added server costs no allocation of its own — not a server
// holon, six components, their parts and five names apiece (about twenty),
// nor the parts alone (six) or the doubling of the agent tables. The bound
// allows one per server.
func TestTierSlabs(t *testing.T) {
	const n = 32
	small, large := buildAllocs(wideSpec(n)), buildAllocs(wideSpec(2*n))
	perServer := (large - small) / n
	t.Logf("%d servers: %v allocs; %d servers: %v; %.2f per added server", n, small, 2*n, large, perServer)
	if large-small > n {
		t.Errorf("%d more servers cost %v more allocations (%.2f each), want at most 1 each",
			n, large-small, perServer)
	}
}

// TestAgentCensusMatchesBuild: the agent count Build reserves, counted from
// the spec, is the number of agents it registers, on the two-DC test spec,
// the chaos document's platform and a 37-server tier. An agent registered
// past the reservation still gets the next ID, and one registered under any
// other ID is still refused.
func TestAgentCensusMatchesBuild(t *testing.T) {
	for name, spec := range map[string]InfraSpec{"twoDC": twoDCSpec(), "chaos": chaosSpec(t), "wide": wideSpec(37)} {
		sim := core.NewSimulation(core.Config{Seed: 9})
		if _, err := Build(sim, spec); err != nil {
			t.Fatal(err)
		}
		if census := agentCensus(spec); census != sim.AgentCount() {
			t.Errorf("%s: census %d, but Build registered %d agents", name, census, sim.AgentCount())
		}
		next := sim.NextAgentID()
		if l := hardware.NewLink(sim, "extra", hardware.LinkSpec{Gbps: 1}); l.ID() != next {
			t.Errorf("%s: the agent past the reservation got ID %d, want %d", name, l.ID(), next)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: an agent registered under a stale ID was accepted", name)
				}
			}()
			stale := new(core.DelayLine)
			stale.InitAgent(next, "stale")
			sim.AddAgent(stale)
		}()
		sim.Shutdown()
	}
}

// TestProbeOrderIsDeterministic: two builds of the chaos document register
// their probes in one order — data centers sorted, each with its tiers in
// declaration order, then the WAN links sorted — though tiers are kept in
// a map.
func TestProbeOrderIsDeterministic(t *testing.T) {
	spec := chaosSpec(t)
	var runs [2][]string
	for i := range runs {
		sim := core.NewSimulation(core.Config{Seed: 1})
		inf, err := Build(sim, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range inf.AppendProbes(nil) {
			runs[i] = append(runs[i], p.Key)
		}
		sim.Shutdown()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two builds registered probes in different orders:\n%v\n%v", runs[0], runs[1])
	}
	var want []string
	for _, name := range []string{"AS1", "EU", "NA"} {
		for _, tier := range []string{"app", "db"} {
			want = append(want, "cpu:"+name+":"+tier, "mem:"+name+":"+tier, "disk:"+name+":"+tier)
		}
		want = append(want, "switch:"+name, "clink:"+name)
	}
	for _, l := range []string{"AS1->EU", "AS1->NA", "EU->AS1", "EU->NA", "NA->AS1", "NA->EU"} {
		want = append(want, "link:"+l)
	}
	if !reflect.DeepEqual(runs[0], want) {
		t.Errorf("registration order\n%v\nwant\n%v", runs[0], want)
	}
}

// TestDCProbeAllocs: registering a data center's probes costs the same
// number of allocations whatever its number of tiers — its keys are one
// string, its samplers the components themselves, and the collector takes
// the batch into one slab of series.
func TestDCProbeAllocs(t *testing.T) {
	counts := map[int]float64{}
	for _, tiers := range []int{1, 2, 4, 8, 16} {
		spec := twoDCSpec()
		dc := spec.DCs[0]
		base := dc.Tiers[0]
		dc.Tiers = nil
		for i := range tiers {
			ts := base
			ts.Name = fmt.Sprintf("t%d", i)
			dc.Tiers = append(dc.Tiers, ts)
		}
		sim := core.NewSimulation(core.Config{})
		inf, err := Build(sim, InfraSpec{DCs: []DCSpec{dc}})
		if err != nil {
			t.Fatal(err)
		}
		counts[tiers] = testing.AllocsPerRun(50, func() { inf.RegisterProbes(metrics.NewCollector()) })
		sim.Shutdown()
	}
	t.Logf("allocations by tier count: %v", counts)
	for tiers, n := range counts {
		if n != counts[1] {
			t.Errorf("a DC of %d tiers registers its probes in %v allocations, of 1 tier in %v", tiers, n, counts[1])
		}
	}
}
