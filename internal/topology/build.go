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
	for _, dcSpec := range spec.DCs {
		dc := buildDC(sim, dcSpec)
		inf.DCs[dcSpec.Name] = dc
		inf.dcOrder = append(inf.dcOrder, dcSpec.Name)
	}
	sort.Strings(inf.dcOrder)
	for i, name := range inf.dcOrder {
		dc := inf.DCs[name]
		dc.index = i
		inf.dcs = append(inf.dcs, dc)
	}
	inf.routes = make([]route, len(inf.dcs)*len(inf.dcs))
	for _, w := range spec.WAN {
		fwd := hardware.NewLink(sim, fmt.Sprintf("wan:%s->%s", w.From, w.To), w.Link)
		rev := hardware.NewLink(sim, fmt.Sprintf("wan:%s->%s", w.To, w.From), w.Link)
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
