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

// wanKey is a directed DC pair.
type wanKey struct{ from, to string }

// Infrastructure is the root holon: all data centers plus the WAN graph.
type Infrastructure struct {
	sim     *core.Simulation
	DCs     map[string]*DataCenter
	dcOrder []string
	dcs     []*DataCenter // dcOrder resolved; DataCenter.index is the position
	links   map[wanKey]*hardware.Link
	backups map[wanKey]*hardware.Link

	// routes is the compiled route table, one entry per ordered DC pair at
	// [from.index*len(dcs)+to.index], each valid for the routeVersion it was
	// built at (see route). rerouted bumps the version; entries rebuild on
	// their next use.
	routeVersion int
	routes       []route
}

// Build materializes the infrastructure specification into agents
// registered with the simulation.
func Build(sim *core.Simulation, spec InfraSpec) (*Infrastructure, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	inf := &Infrastructure{
		sim:     sim,
		DCs:     make(map[string]*DataCenter),
		links:   make(map[wanKey]*hardware.Link),
		backups: make(map[wanKey]*hardware.Link),
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
	inf.routes = make([]route, len(inf.dcs)*len(inf.dcs))
	for _, w := range spec.WAN {
		fwd := hardware.NewLink(sim, "wan:"+w.From+"->"+w.To, w.Link)
		rev := hardware.NewLink(sim, "wan:"+w.To+"->"+w.From, w.Link)
		if w.Backup {
			inf.backups[wanKey{w.From, w.To}] = fwd
			inf.backups[wanKey{w.To, w.From}] = rev
		} else {
			inf.links[wanKey{w.From, w.To}] = fwd
			inf.links[wanKey{w.To, w.From}] = rev
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
// all made once at the tier's size; the names are cut from one string. So a
// tier costs a fixed number of allocations plus what each CPU and RAID
// allocates for its own parts (socket and stage queues), not a server
// holon, its components and five names apiece. Server i is set up as one
// by one construction did it, under the same IDs and names: its CPU
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
		s.CPU.Init(sim, cpu, ts.Server.CPU)
		s.Mem.Init(ts.Server.MemGB*1e9, ts.Server.CacheHitRate,
			core.DeriveSeed(sim.Seed(), uint64(sim.NextAgentID())*2654435761+uint64(i)))
		s.NIC.Init(sim, nb.Str("nic:").Str(s.Name).Cut(), ts.Server.NICGbps)
		s.Link.Init(sim, nb.Str("llink:").Str(s.Name).Cut(), ts.LocalLink)
		if raids != nil {
			s.RAID = &raids[i]
			s.RAID.Init(sim, nb.Str("raid:").Str(s.Name).Cut(), *ts.Server.RAID)
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

// WANLink returns the directed primary WAN link between two adjacent DCs,
// or nil when none exists.
func (inf *Infrastructure) WANLink(from, to string) *hardware.Link {
	return inf.links[wanKey{from, to}]
}

// BackupLink returns the directed backup link between two DCs, or nil.
func (inf *Infrastructure) BackupLink(from, to string) *hardware.Link {
	return inf.backups[wanKey{from, to}]
}

// FailWAN marks both directions of a WAN connection failed and invalidates
// cached routes, diverting subsequent traffic onto backup paths. The
// semantics are complete-then-divert, pinned by TestFailWANInFlight:
// messages whose route was pinned before the failure — at plan expansion —
// drain through the link at full rate as if healthy (route withdrawal
// drains egress buffers; see hardware.Link.Fail), while every message
// expanded after this call routes around the failure.
func (inf *Infrastructure) FailWAN(a, b string) {
	for _, k := range []wanKey{{a, b}, {b, a}} {
		if l := inf.links[k]; l != nil {
			l.Fail()
		}
	}
	inf.rerouted()
}

// RestoreWAN restores both directions of a WAN connection.
func (inf *Infrastructure) RestoreWAN(a, b string) {
	for _, k := range []wanKey{{a, b}, {b, a}} {
		if l := inf.links[k]; l != nil {
			l.Restore()
		}
	}
	inf.rerouted()
}
