package topology

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/names"
)

// Server is a server holon: NIC, CPU, memory and optional RAID, plus the
// local link tying it to the data center switch (Fig. 3-9).
type Server struct {
	Name string
	CPU  *hardware.CPU
	Mem  *hardware.Memory
	NIC  *hardware.NIC
	RAID *hardware.RAID // nil when the tier uses a SAN
	Link *hardware.Link // server <-> DC switch
	Tier *Tier
}

// Tier is an array of identical server holons, optionally backed by a SAN.
type Tier struct {
	Name    string
	DC      *DataCenter
	Servers []*Server
	SAN     *hardware.SAN
	SANLink *hardware.Link
	rr      int
}

// Pick returns the next server by round-robin — the default load-balancing
// policy applied at message expansion time.
func (t *Tier) Pick() *Server {
	s := t.Servers[t.rr]
	t.rr = (t.rr + 1) % len(t.Servers)
	return s
}

// PickLeastLoaded returns the server with the shallowest CPU queue,
// breaking ties by index for determinism.
func (t *Tier) PickLeastLoaded() *Server {
	best := t.Servers[0]
	depth := best.CPU.QueueDepth()
	for _, s := range t.Servers[1:] {
		if d := s.CPU.QueueDepth(); d < depth {
			best, depth = s, d
		}
	}
	return best
}

// TotalCores returns the core count across the tier.
func (t *Tier) TotalCores() int {
	n := 0
	for _, s := range t.Servers {
		n += s.CPU.Spec().TotalCores()
	}
	return n
}

// DataCenter is a data center holon: tiers interconnected through a switch,
// plus the client access link and the local client population.
type DataCenter struct {
	Name       string
	Switch     *hardware.Switch
	ClientLink *hardware.Link
	Tiers      map[string]*Tier
	Clients    *ClientPool // nil when no clients are attached
	// tiers holds the Tiers in declaration order, the order their probes
	// register in.
	tiers []*Tier
	// Daemon is the delay line hosting background daemon processes (the R
	// and I processes of §6.4.3) — lightweight, uncontended.
	Daemon *core.DelayLine

	// index is the data center's position in Infrastructure.dcs — the dense
	// key of the route table.
	index int
}

// Tier returns the named tier, panicking on unknown names: a cascade that
// references a missing tier is a scenario bug.
func (d *DataCenter) Tier(name string) *Tier {
	t := d.Tiers[name]
	if t == nil {
		panic(fmt.Sprintf("topology: DC %s has no tier %q", d.Name, name))
	}
	return t
}

// HasTier reports whether the data center hosts the named tier.
func (d *DataCenter) HasTier(name string) bool { return d.Tiers[name] != nil }

// Infrastructure is the root holon: all data centers plus the WAN graph.
type Infrastructure struct {
	sim     *core.Simulation
	DCs     map[string]*DataCenter
	dcOrder []string
	dcs     []*DataCenter // dcOrder resolved; DataCenter.index is the position

	// routes is the compiled route table, one entry per ordered DC pair at
	// [from.index*len(dcs)+to.index], each valid for the routeVersion it was
	// built at (see route). rerouted bumps the version; entries rebuild on
	// their next use.
	routeVersion int
	routes       []route
	// wan is the WAN graph: the directed primary and backup link of each
	// ordered DC pair, under the same dense index as routes. prev and queue
	// are the route search's scratch (search), sized once here.
	wan         []wanPair
	prev, queue []int
}

// wanPair is the directed primary and backup WAN link of one DC pair; either
// may be nil.
type wanPair struct{ primary, backup *hardware.Link }

// Build materializes the infrastructure specification into agents
// registered with the simulation. It counts them from the spec first
// (agentCensus) and reserves the simulation's agent tables once for all of
// them.
func Build(sim *core.Simulation, spec InfraSpec) (*Infrastructure, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sim.ReserveAgents(agentCensus(spec))
	inf := &Infrastructure{
		sim: sim,
		DCs: make(map[string]*DataCenter),
	}
	inf.dcOrder = make([]string, 0, len(spec.DCs))
	for _, dcSpec := range spec.DCs {
		dc := buildDC(sim, dcSpec)
		inf.DCs[dcSpec.Name] = dc
		inf.dcOrder = append(inf.dcOrder, dcSpec.Name)
	}
	sort.Strings(inf.dcOrder)
	inf.dcs = make([]*DataCenter, len(inf.dcOrder))
	for i, name := range inf.dcOrder {
		dc := inf.DCs[name]
		dc.index = i
		inf.dcs[i] = dc
	}
	n := len(inf.dcs)
	inf.routes = make([]route, n*n)
	inf.wan = make([]wanPair, n*n)
	scratch := make([]int, 2*n)
	inf.prev, inf.queue = scratch[:n:n], scratch[n:n]
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
	// Sorted data-center order, not the map's: client-pool agent IDs decide
	// the drain order of same-tick completions, so they must not vary from
	// build to build. (Validate has rejected keys that name no DC.)
	for _, dcName := range inf.dcOrder {
		cs, ok := spec.Clients[dcName]
		if !ok {
			continue
		}
		dc := inf.DCs[dcName]
		dc.Clients = newClientPool(sim, dc, cs)
	}
	return inf, nil
}

// agentCensus counts the agents Build registers for spec: per data center
// its switch, daemon line and client link; per server its CPU, NIC, local
// link and RAID when it has one (its memory is no agent); per SAN tier the
// SAN and its link; two per WAN connection; and per client pool its local
// line and one NIC per slot.
func agentCensus(spec InfraSpec) int {
	n := 2 * len(spec.WAN)
	for _, dc := range spec.DCs {
		n += 3
		for _, ts := range dc.Tiers {
			perServer := 3
			if ts.Server.RAID != nil {
				perServer++
			}
			n += ts.Servers * perServer
			if ts.SAN != nil {
				n += 2
			}
		}
	}
	for _, cs := range spec.Clients {
		n += 1 + cs.Slots
	}
	return n
}

func buildDC(sim *core.Simulation, spec DCSpec) *DataCenter {
	dc := &DataCenter{
		Name:   spec.Name,
		Switch: hardware.NewSwitch(sim, "sw:"+spec.Name, spec.SwitchGbps),
		Tiers:  make(map[string]*Tier, len(spec.Tiers)),
		tiers:  make([]*Tier, len(spec.Tiers)),
		Daemon: core.NewDelayLine(sim, "daemon:"+spec.Name),
	}
	dc.ClientLink = hardware.NewLink(sim, "clink:"+spec.Name, spec.ClientLink)
	tiers := make([]Tier, len(spec.Tiers))
	for i, ts := range spec.Tiers {
		tier := &tiers[i]
		tier.Name, tier.DC = ts.Name, dc
		buildServers(sim, tier, ts)
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

// buildServers sets up the tier's servers in place. The servers are one
// slab, and their CPUs, memories, NICs, local links and RAIDs one slab each,
// all made once at the tier's size; the names are cut from one string, and
// what the CPUs and RAIDs repeat (socket, stage and lane queues, in-service
// arrays, miss buffers) is carved from one hardware.Parts reserved for the
// whole tier. So a tier costs a fixed number of allocations, not a server
// holon, its components, their parts and five names apiece. Server i is set
// up as one by one construction did it, under the same IDs and names: its CPU
// registers as "cpu:<dc>:<tier>:<i>", its memory's seed reads the next
// agent ID after that, and then its NIC ("nic:…"), local link ("llink:…")
// and RAID ("raid:…") register in that order.
func buildServers(sim *core.Simulation, tier *Tier, ts TierSpec) {
	n := ts.Servers
	srvs := make([]Server, n)
	cpus := make([]hardware.CPU, n)
	mems := make([]hardware.Memory, n)
	nics := make([]hardware.NIC, n)
	links := make([]hardware.Link, n)
	var raids []hardware.RAID
	var hw hardware.Parts
	hw.Reserve(n, &ts.Server.CPU, ts.Server.RAID)
	// Each component's name is its prefix plus "<dc>:<tier>:<i>".
	prefixes := len("cpu:") + len("nic:") + len("llink:")
	parts := 3
	if ts.Server.RAID != nil {
		raids = make([]hardware.RAID, n)
		prefixes += len("raid:")
		parts++
	}
	stem := len(tier.DC.Name) + len(ts.Name) + 2
	var nb names.Slab
	nb.Grow(n*prefixes + parts*(n*stem+decimalLen(n)))
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

// decimalLen returns the total length of the decimal forms of 0 … n-1.
func decimalLen(n int) int {
	total := 0
	for i := range n {
		total += names.IntLen(i)
	}
	return total
}

// DC returns the named data center, panicking on unknown names.
func (inf *Infrastructure) DC(name string) *DataCenter {
	dc := inf.DCs[name]
	if dc == nil {
		panic(fmt.Sprintf("topology: unknown DC %q", name))
	}
	return dc
}

// DCNames returns the data center names in sorted order.
func (inf *Infrastructure) DCNames() []string { return inf.dcOrder }

// pair returns the link pair of the ordered DC pair (a, b), or nil when
// either names no data center.
func (inf *Infrastructure) pair(a, b string) *wanPair {
	from, to := inf.DCs[a], inf.DCs[b]
	if from == nil || to == nil {
		return nil
	}
	return &inf.wan[from.index*len(inf.dcs)+to.index]
}

// WANLink returns the directed primary WAN link between two adjacent DCs,
// or nil when none exists.
func (inf *Infrastructure) WANLink(from, to string) *hardware.Link {
	if p := inf.pair(from, to); p != nil {
		return p.primary
	}
	return nil
}

// BackupLink returns the directed backup link between two DCs, or nil.
func (inf *Infrastructure) BackupLink(from, to string) *hardware.Link {
	if p := inf.pair(from, to); p != nil {
		return p.backup
	}
	return nil
}

// eachWAN calls fn for every directed WAN link — per ordered DC pair in
// name order, its primary, then its backup — with its two ends.
func (inf *Infrastructure) eachWAN(fn func(from, to *DataCenter, l *hardware.Link)) {
	n := len(inf.dcs)
	for i, p := range inf.wan {
		for _, l := range [2]*hardware.Link{p.primary, p.backup} {
			if l != nil {
				fn(inf.dcs[i/n], inf.dcs[i%n], l)
			}
		}
	}
}

// bothWays applies fn to each direction of the primary a-b connection that
// exists.
func (inf *Infrastructure) bothWays(a, b string, fn func(*hardware.Link)) {
	for _, l := range [2]*hardware.Link{inf.WANLink(a, b), inf.WANLink(b, a)} {
		if l != nil {
			fn(l)
		}
	}
}

// FailWAN marks both directions of a WAN connection failed and invalidates
// cached routes, diverting subsequent traffic onto backup paths. The
// semantics are complete-then-divert, pinned by TestFailWANInFlight:
// messages whose route was pinned before the failure — at plan expansion —
// drain through the link at full rate as if healthy (route withdrawal
// drains egress buffers; see hardware.Link.Fail), while every message
// expanded after this call routes around the failure.
func (inf *Infrastructure) FailWAN(a, b string) {
	inf.bothWays(a, b, (*hardware.Link).Fail)
	inf.rerouted()
}

// RestoreWAN restores both directions of a WAN connection.
func (inf *Infrastructure) RestoreWAN(a, b string) {
	inf.bothWays(a, b, (*hardware.Link).Restore)
	inf.rerouted()
}
