package topology

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hardware"
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
// registered with the simulation. It counts what the spec lays out first
// (agentCensus), reserves the simulation's agent tables once for all of
// them, and makes every component kind as one slab at its count (layout);
// the components are then set up in place, in registration order.
func Build(sim *core.Simulation, spec InfraSpec) (*Infrastructure, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := agentCensus(spec)
	sim.ReserveAgents(c.agents)
	l := c.layout()
	inf := &Infrastructure{
		sim: sim,
		DCs: make(map[string]*DataCenter, len(spec.DCs)),
	}
	inf.dcOrder = make([]string, 0, len(spec.DCs))
	for _, dcSpec := range spec.DCs {
		inf.DCs[dcSpec.Name] = l.dc(sim, dcSpec)
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
		fwd := l.link(sim, l.names.Str("wan:").Str(w.From).Str("->").Str(w.To).Cut(), w.Link)
		rev := l.link(sim, l.names.Str("wan:").Str(w.To).Str("->").Str(w.From).Cut(), w.Link)
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
		dc.Clients = l.pool(sim, dc, cs)
	}
	return inf, nil
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
