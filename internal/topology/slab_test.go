package topology

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/names"
)

// newSwitch, newNIC and newMemory set up a component of its own, a zero
// value set up in place by its Init, as the one-by-one build made them.
func newSwitch(sim *core.Simulation, name string, gbps float64) *hardware.Switch {
	s := new(hardware.Switch)
	s.Init(sim, name, gbps)
	return s
}

func newNIC(sim *core.Simulation, name string, gbps float64) *hardware.NIC {
	n := new(hardware.NIC)
	n.Init(sim, name, gbps)
	return n
}

func newMemory(capacity, hitRate float64, seed uint64) *hardware.Memory {
	m := new(hardware.Memory)
	m.Init(capacity, hitRate, seed)
	return m
}

// oracleBuildDC builds a data center as it was built before tiers were
// slabbed: every server holon and each of its components allocated on its
// own, named with Sprintf and concatenations. It is the oracle for the
// agent IDs, names and memory seeds the one-pass layout must reproduce.
func oracleBuildDC(sim *core.Simulation, spec DCSpec) *DataCenter {
	dc := &DataCenter{
		Name:   spec.Name,
		Switch: newSwitch(sim, "sw:"+spec.Name, spec.SwitchGbps),
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
				Mem: newMemory(ts.Server.MemGB*1e9, ts.Server.CacheHitRate,
					core.DeriveSeed(sim.Seed(), uint64(sim.NextAgentID())*2654435761+uint64(i))),
				NIC:  newNIC(sim, "nic:"+name, ts.Server.NICGbps),
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

// TestBuildDCMatchesOracle: the one-pass layout registers every data
// center's agents under the ID and name one by one construction gave them,
// in the same order, and seeds every memory alike. Build sets the data
// centers up first, in spec order, so building them one by one on a fresh
// simulation reproduces their IDs.
func TestBuildDCMatchesOracle(t *testing.T) {
	for name, spec := range layoutSpecs(t) {
		sim, oracle := core.NewSimulation(core.Config{Seed: 9}), core.NewSimulation(core.Config{Seed: 9})
		inf, err := Build(sim, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range spec.DCs {
			order := tierOrder(d)
			got, want := dcLayout(inf.DC(d.Name), order), dcLayout(oracleBuildDC(oracle, d), order)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: DC %s laid out in one pass differs from the one by one build", name, d.Name)
			}
		}
		if dcAgents := agentCensus(InfraSpec{DCs: spec.DCs}).agents; oracle.AgentCount() != dcAgents {
			t.Errorf("%s: the data centers register %d agents one by one, the census counts %d", name, oracle.AgentCount(), dcAgents)
		}
		sim.Shutdown()
		oracle.Shutdown()
	}
}

// tierBuild is Build as it was before the platform was laid out in one
// pass: each data center, and in it each tier, made its own slabs and
// reserved its own parts (tierBuildDC, tierBuildServers), and each client
// pool its own (tierClientPool). It is the oracle for the registration
// order, names, specs and memory seeds of the one-pass layout.
func tierBuild(sim *core.Simulation, spec InfraSpec) *Infrastructure {
	sim.ReserveAgents(agentCensus(spec).agents)
	inf := &Infrastructure{sim: sim, DCs: make(map[string]*DataCenter)}
	for _, dcSpec := range spec.DCs {
		inf.DCs[dcSpec.Name] = tierBuildDC(sim, dcSpec)
		inf.dcOrder = append(inf.dcOrder, dcSpec.Name)
	}
	sort.Strings(inf.dcOrder)
	for i, name := range inf.dcOrder {
		dc := inf.DCs[name]
		dc.index = i
		inf.dcs = append(inf.dcs, dc)
	}
	n := len(inf.dcs)
	inf.routes = make([]route, n*n)
	inf.wan = make([]wanPair, n*n)
	inf.prev, inf.queue = make([]int, n), make([]int, 0, n)
	for _, w := range spec.WAN {
		fwd := hardware.NewLink(sim, "wan:"+w.From+"->"+w.To, w.Link)
		rev := hardware.NewLink(sim, "wan:"+w.To+"->"+w.From, w.Link)
		there, back := inf.pair(w.From, w.To), inf.pair(w.To, w.From)
		if w.Backup {
			there.backup, back.backup = fwd, rev
		} else {
			there.primary, back.primary = fwd, rev
		}
	}
	for _, dcName := range inf.dcOrder {
		if cs, ok := spec.Clients[dcName]; ok {
			dc := inf.DCs[dcName]
			dc.Clients = tierClientPool(sim, dc, cs)
		}
	}
	return inf
}

func tierBuildDC(sim *core.Simulation, spec DCSpec) *DataCenter {
	dc := &DataCenter{
		Name:   spec.Name,
		Switch: newSwitch(sim, "sw:"+spec.Name, spec.SwitchGbps),
		Tiers:  make(map[string]*Tier, len(spec.Tiers)),
		tiers:  make([]*Tier, len(spec.Tiers)),
		Daemon: core.NewDelayLine(sim, "daemon:"+spec.Name),
	}
	dc.ClientLink = hardware.NewLink(sim, "clink:"+spec.Name, spec.ClientLink)
	tiers := make([]Tier, len(spec.Tiers))
	for i, ts := range spec.Tiers {
		tier := &tiers[i]
		tier.Name, tier.DC = ts.Name, dc
		tierBuildServers(sim, tier, ts)
		if ts.SAN != nil {
			tname := spec.Name + ":" + ts.Name
			tier.SAN = hardware.NewSAN(sim, "san:"+tname, *ts.SAN)
			tier.SANLink = hardware.NewLink(sim, "slink:"+tname, *ts.SANLink)
		}
		dc.Tiers[ts.Name] = tier
		dc.tiers[i] = tier
	}
	return dc
}

// tierBuildServers sets up one tier's servers from slabs of the tier's own
// size, its parts from one hardware.Parts reserved for the tier and its
// names from one names.Slab.
func tierBuildServers(sim *core.Simulation, tier *Tier, ts TierSpec) {
	n := ts.Servers
	srvs := make([]Server, n)
	cpus := make([]hardware.CPU, n)
	mems := make([]hardware.Memory, n)
	nics := make([]hardware.NIC, n)
	links := make([]hardware.Link, n)
	var raids []hardware.RAID
	var hw hardware.Parts
	hw.Reserve(n, &ts.Server.CPU, ts.Server.RAID)
	if ts.Server.RAID != nil {
		raids = make([]hardware.RAID, n)
	}
	var nb names.Slab
	tier.Servers = make([]*Server, n)
	for i := range srvs {
		cpu := nb.Str("cpu:").Str(tier.DC.Name).Str(":").Str(ts.Name).Str(":").Int(i).Cut()
		s := &srvs[i]
		*s = Server{Name: cpu[len("cpu:"):], CPU: &cpus[i], Mem: &mems[i], NIC: &nics[i], Link: &links[i], Tier: tier}
		s.CPU.InitFrom(sim, cpu, ts.Server.CPU, &hw)
		s.Mem.Init(ts.Server.MemGB*1e9, ts.Server.CacheHitRate,
			core.DeriveSeed(sim.Seed(), uint64(sim.NextAgentID())*2654435761+uint64(i)))
		s.NIC.Init(sim, nb.Str("nic:").Str(s.Name).Cut(), ts.Server.NICGbps)
		s.Link.Init(sim, nb.Str("llink:").Str(s.Name).Cut(), ts.LocalLink)
		if raids != nil {
			s.RAID = &raids[i]
			s.RAID.InitFrom(sim, nb.Str("raid:").Str(s.Name).Cut(), *ts.Server.RAID, &hw)
		}
		tier.Servers[i] = s
	}
}

func tierClientPool(sim *core.Simulation, dc *DataCenter, spec ClientSpec) *ClientPool {
	p := &ClientPool{
		DC:    dc,
		Spec:  spec,
		Slots: make([]ClientSlot, spec.Slots),
		Local: core.NewDelayLine(sim, "clocal:"+dc.Name),
	}
	nics := make([]hardware.NIC, spec.Slots)
	var nb names.Slab
	for i := range p.Slots {
		nics[i].Init(sim, nb.Str("cnic:").Str(dc.Name).Str(":").Int(i).Cut(), spec.NICGbps)
		p.Slots[i] = ClientSlot{Index: i, NIC: &nics[i], Pool: p}
	}
	return p
}

// sanSpec is one data center with a SAN tier of three servers whose SAN
// draws its drives' cache hits lane by lane, beside a RAID tier.
func sanSpec() InfraSpec {
	s := twoDCSpec()
	dc := s.DCs[0]
	dc.Tiers = append([]TierSpec(nil), dc.Tiers...)
	san := *dc.Tiers[1].SAN
	san.Disk.HitRate, san.HitRate = 0.3, 0.1
	dc.Tiers[1].SAN, dc.Tiers[1].Servers = &san, 3
	dc.Tiers[1].Server.CacheHitRate = 0.2
	return InfraSpec{DCs: []DCSpec{dc}, Clients: map[string]ClientSpec{"NA": s.Clients["NA"]}}
}

// layoutSpecs are the platforms the layout is checked on: the two-DC test
// spec, the chaos document's, a SAN tier and a 37-server tier.
func layoutSpecs(t testing.TB) map[string]InfraSpec {
	return map[string]InfraSpec{"twoDC": twoDCSpec(), "chaos": chaosSpec(t), "san": sanSpec(), "wide": wideSpec(37)}
}

func tierOrder(d DCSpec) []string {
	var order []string
	for _, ts := range d.Tiers {
		order = append(order, ts.Name)
	}
	return order
}

// platformLayout is everything a build fixes: every data center's layout
// (dcLayout) in name order with its client pool, every WAN link with its
// ends, and the labels of all agents in ID order — the registration order.
func platformLayout(inf *Infrastructure, spec InfraSpec) []any {
	var out, agents []any
	var labels []agentLabel
	add := func(as ...core.Agent) {
		for _, a := range as {
			labels = append(labels, label(a))
		}
	}
	for _, name := range inf.DCNames() {
		dc := inf.DC(name)
		for _, d := range spec.DCs {
			if d.Name == name {
				out = append(out, dcLayout(dc, tierOrder(d)))
			}
		}
		add(dc.Switch, dc.Daemon, dc.ClientLink)
		for _, tier := range dc.tiers {
			for _, s := range tier.Servers {
				add(s.CPU, s.NIC, s.Link)
				if s.RAID != nil {
					add(s.RAID)
				}
			}
			if tier.SAN != nil {
				add(tier.SAN, tier.SANLink)
			}
		}
		if p := dc.Clients; p != nil {
			out = append(out, p.DC == dc, p.Spec, label(p.Local), len(p.Slots))
			add(p.Local)
			for i := range p.Slots {
				sl := &p.Slots[i]
				out = append(out, sl.Index, sl.Pool == p, label(sl.NIC), sl.NIC.Rate())
				add(sl.NIC)
			}
		}
	}
	inf.eachWAN(func(from, to *DataCenter, l *hardware.Link) {
		out = append(out, from.Name, to.Name, label(l), l.Rate(), l.Latency(), inf.WANLink(from.Name, to.Name) == l)
		add(l)
	})
	sort.Slice(labels, func(i, j int) bool { return labels[i].ID < labels[j].ID })
	for _, l := range labels {
		agents = append(agents, l)
	}
	return append(out, agents...)
}

// TestPlatformLayoutMatchesOracle: Build, laying the platform out in one
// pass, registers every agent — data centers, tiers, SANs, WAN links and
// client pools — under the ID and name the per-tier build gave it, in the
// same order, with the same specs, and seeds every memory alike, on the
// two-DC test spec, the chaos document's platform, a SAN tier and a
// 37-server tier.
func TestPlatformLayoutMatchesOracle(t *testing.T) {
	for name, spec := range layoutSpecs(t) {
		sim, oracle := core.NewSimulation(core.Config{Seed: 9}), core.NewSimulation(core.Config{Seed: 9})
		inf, err := Build(sim, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, want := platformLayout(inf, spec), platformLayout(tierBuild(oracle, spec), spec)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the one-pass layout differs from the per-tier build", name)
		}
		if sim.AgentCount() != oracle.AgentCount() || len(want) == 0 {
			t.Errorf("%s: %d agents registered, the per-tier build registers %d", name, sim.AgentCount(), oracle.AgentCount())
		}
		sim.Shutdown()
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

// tieredSpec is one data center of the given number of RAID tiers of four
// servers each, with a client pool.
func tieredSpec(tiers int) InfraSpec {
	s := twoDCSpec()
	dc := s.DCs[0]
	base := dc.Tiers[0]
	base.Servers = 4
	dc.Tiers = nil
	for i := range tiers {
		ts := base
		ts.Name = fmt.Sprintf("t%d", i)
		dc.Tiers = append(dc.Tiers, ts)
	}
	return InfraSpec{DCs: []DCSpec{dc}, Clients: map[string]ClientSpec{"NA": s.Clients["NA"]}}
}

// TestTierSlabs: the platform is laid out in one pass — every component
// kind one slab across all tiers, the parts of every CPU and RAID carved
// from one hardware.Parts, the names cut from one chunk — and Build
// reserves the simulation's agent tables for its census up front, so an
// added server costs no allocation of its own (not a server holon, six
// components, their parts and five names apiece, about twenty), and an
// added tier none either (not its own slabs, parts and names, eleven). The
// bounds allow one per added server, and none per added tier up to the
// eight a data center's tier map holds without growing.
func TestTierSlabs(t *testing.T) {
	const n = 32
	small, large := buildAllocs(wideSpec(n)), buildAllocs(wideSpec(2*n))
	perServer := (large - small) / n
	t.Logf("%d servers: %v allocs; %d servers: %v; %.2f per added server", n, small, 2*n, large, perServer)
	if large-small > n {
		t.Errorf("%d more servers cost %v more allocations (%.2f each), want at most 1 each",
			n, large-small, perServer)
	}
	counts := map[int]float64{}
	for _, tiers := range []int{1, 2, 4, 8} {
		counts[tiers] = buildAllocs(tieredSpec(tiers))
	}
	t.Logf("allocations by tier count: %v", counts)
	for tiers, got := range counts {
		if got != counts[1] {
			t.Errorf("a platform of %d tiers costs %v allocations, of 1 tier %v", tiers, got, counts[1])
		}
	}
}

// TestAgentCensusMatchesBuild: the agent count Build reserves, counted from
// the spec, is the number of agents it registers, on the two-DC test spec,
// the chaos document's platform and a 37-server tier. An agent registered
// past the reservation still gets the next ID, and one registered under any
// other ID is still refused.
func TestAgentCensusMatchesBuild(t *testing.T) {
	for name, spec := range layoutSpecs(t) {
		sim := core.NewSimulation(core.Config{Seed: 9})
		if _, err := Build(sim, spec); err != nil {
			t.Fatal(err)
		}
		if census := agentCensus(spec).agents; census != sim.AgentCount() {
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
