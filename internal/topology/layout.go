package topology

import (
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/names"
)

// census is what Build lays out for a spec, counted before anything is
// made: the agents it registers, how many of each component kind there are,
// the bytes of all their names and the parts their CPUs, RAIDs and SANs
// repeat.
type census struct {
	agents int
	// The component kinds: links counts the servers' local links, the data
	// centers' client links, the SAN links and both directions of every WAN
	// connection; lines the daemon lines and the client pools' local lines.
	dcs, tiers, servers, raids, sans int
	links, lines, pools, slots       int
	// names is the bytes of every agent name.
	names int
	parts hardware.Parts
}

// agentCensus walks spec once and counts what Build lays out: per data
// center its switch, daemon line and client link; per server its CPU, NIC,
// local link and RAID when it has one (its memory is no agent); per SAN tier
// the SAN and its link; two links per WAN connection; and per client pool
// its local line and one NIC per slot.
func agentCensus(spec InfraSpec) census {
	var c census
	for _, d := range spec.DCs {
		c.countDC(d)
	}
	for _, w := range spec.WAN {
		c.agents += 2
		c.links += 2
		c.names += 2 * (len("wan:->") + len(w.From) + len(w.To))
	}
	for dc, cs := range spec.Clients {
		c.countPool(dc, cs)
	}
	return c
}

// countDC counts a data center: "sw:<dc>", "daemon:<dc>" and "clink:<dc>",
// then its tiers.
func (c *census) countDC(d DCSpec) {
	c.dcs++
	c.agents += 3
	c.links++
	c.lines++
	c.names += len("sw:") + len("daemon:") + len("clink:") + 3*len(d.Name)
	for _, ts := range d.Tiers {
		c.countTier(d.Name, ts)
	}
}

// countTier counts a tier's servers — each named "<dc>:<tier>:<i>", with
// components "cpu:", "nic:", "llink:" and "raid:" plus that — and its SAN,
// "san:<dc>:<tier>" behind "slink:<dc>:<tier>".
func (c *census) countTier(dc string, ts TierSpec) {
	n := ts.Servers
	c.tiers++
	c.servers += n
	c.links += n
	prefixes, parts := len("cpu:")+len("nic:")+len("llink:"), 3
	if ts.Server.RAID != nil {
		c.raids += n
		prefixes += len("raid:")
		parts++
	}
	c.agents += n * parts
	stem := len(dc) + len(ts.Name) + 2
	c.names += n*prefixes + parts*(n*stem+decimalLen(n))
	c.parts.Count(n, &ts.Server.CPU, ts.Server.RAID)
	if ts.SAN != nil {
		c.sans++
		c.links++
		c.agents += 2
		c.names += len("san:") + len("slink:") + 2*stem - 2
		c.parts.CountSAN(*ts.SAN)
	}
}

// countPool counts a client pool: its local line "clocal:<dc>" and one NIC
// "cnic:<dc>:<i>" per slot.
func (c *census) countPool(dc string, spec ClientSpec) {
	c.pools++
	c.lines++
	c.slots += spec.Slots
	c.agents += 1 + spec.Slots
	c.names += len("clocal:") + len(dc) + spec.Slots*(len("cnic::")+len(dc)) + decimalLen(spec.Slots)
}

// decimalLen returns the total length of the decimal forms of 0 … n-1.
func decimalLen(n int) int {
	total := 0
	for i := range n {
		total += names.IntLen(i)
	}
	return total
}

// layout is a platform's storage: one slab per component kind, made at the
// census' counts, the names cut from one byte chunk and the parts carved
// from one hardware.Parts. Build hands the slabs' elements out in
// registration order and sets each up in place; a slab is never appended
// to, so no component moves once it is set up.
type layout struct {
	dcs      []DataCenter
	tiers    []Tier
	tierPtrs []*Tier
	servers  []Server
	srvPtrs  []*Server
	cpus     []hardware.CPU
	mems     []hardware.Memory
	nics     []hardware.NIC
	links    []hardware.Link
	raids    []hardware.RAID
	sans     []hardware.SAN
	switches []hardware.Switch
	lines    []core.DelayLine
	pools    []ClientPool
	slots    []ClientSlot
	names    names.Slab
	parts    hardware.Parts
}

// layout makes the slabs for everything c counted.
func (c *census) layout() *layout {
	l := &layout{
		dcs:      make([]DataCenter, c.dcs),
		tiers:    make([]Tier, c.tiers),
		tierPtrs: make([]*Tier, c.tiers),
		servers:  make([]Server, c.servers),
		srvPtrs:  make([]*Server, c.servers),
		cpus:     make([]hardware.CPU, c.servers),
		mems:     make([]hardware.Memory, c.servers),
		nics:     make([]hardware.NIC, c.servers+c.slots),
		links:    make([]hardware.Link, c.links),
		raids:    make([]hardware.RAID, c.raids),
		sans:     make([]hardware.SAN, c.sans),
		switches: make([]hardware.Switch, c.dcs),
		lines:    make([]core.DelayLine, c.lines),
		pools:    make([]ClientPool, c.pools),
		slots:    make([]ClientSlot, c.slots),
		parts:    c.parts,
	}
	l.names.Grow(c.names)
	l.parts.Make()
	return l
}

// take cuts the next n elements off s, capped at n.
func take[T any](s *[]T, n int) []T {
	v := (*s)[:n:n]
	*s = (*s)[n:]
	return v
}

// next cuts the next element off s.
func next[T any](s *[]T) *T { return &take(s, 1)[0] }

// link sets up and registers the next link.
func (l *layout) link(sim *core.Simulation, name string, spec hardware.LinkSpec) *hardware.Link {
	link := next(&l.links)
	link.Init(sim, name, spec)
	return link
}

// line sets up and registers the next delay line.
func (l *layout) line(sim *core.Simulation, name string) *core.DelayLine {
	d := next(&l.lines)
	d.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(d)
	return d
}

// dc sets up a data center: its switch "sw:<dc>", daemon line
// "daemon:<dc>" and client link "clink:<dc>", then its tiers in declaration
// order, each one's servers and then its SAN.
func (l *layout) dc(sim *core.Simulation, spec DCSpec) *DataCenter {
	dc := next(&l.dcs)
	sw := next(&l.switches)
	sw.Init(sim, l.names.Str("sw:").Str(spec.Name).Cut(), spec.SwitchGbps)
	*dc = DataCenter{
		Name:   spec.Name,
		Switch: sw,
		Tiers:  make(map[string]*Tier, len(spec.Tiers)),
		tiers:  take(&l.tierPtrs, len(spec.Tiers)),
		Daemon: l.line(sim, l.names.Str("daemon:").Str(spec.Name).Cut()),
	}
	dc.ClientLink = l.link(sim, l.names.Str("clink:").Str(spec.Name).Cut(), spec.ClientLink)
	for i, ts := range spec.Tiers {
		tier := l.tier(sim, dc, ts)
		dc.Tiers[ts.Name] = tier
		dc.tiers[i] = tier
	}
	return dc
}

// tier sets up a tier of dc in place: its servers as one by one
// construction did, under the same IDs and names — server i's CPU registers
// as "cpu:<dc>:<tier>:<i>", its memory's seed reads the next agent ID after
// that, and then its NIC ("nic:…"), local link ("llink:…") and RAID
// ("raid:…") register in that order — then its SAN "san:<dc>:<tier>" and
// SAN link "slink:<dc>:<tier>".
func (l *layout) tier(sim *core.Simulation, dc *DataCenter, ts TierSpec) *Tier {
	tier := next(&l.tiers)
	tier.Name, tier.DC = ts.Name, dc
	n := ts.Servers
	srvs := take(&l.servers, n)
	cpus, mems, nics := take(&l.cpus, n), take(&l.mems, n), take(&l.nics, n)
	var raids []hardware.RAID
	if ts.Server.RAID != nil {
		raids = take(&l.raids, n)
	}
	tier.Servers = take(&l.srvPtrs, n)
	for i := range srvs {
		cpu := l.names.Str("cpu:").Str(tier.DC.Name).Str(":").Str(ts.Name).Str(":").Int(i).Cut()
		s := &srvs[i]
		*s = Server{Name: cpu[len("cpu:"):], CPU: &cpus[i], Mem: &mems[i], NIC: &nics[i], Tier: tier}
		s.CPU.InitFrom(sim, cpu, ts.Server.CPU, &l.parts)
		s.Mem.Init(ts.Server.MemGB*1e9, ts.Server.CacheHitRate,
			core.DeriveSeed(sim.Seed(), uint64(sim.NextAgentID())*2654435761+uint64(i)))
		s.NIC.Init(sim, l.names.Str("nic:").Str(s.Name).Cut(), ts.Server.NICGbps)
		s.Link = l.link(sim, l.names.Str("llink:").Str(s.Name).Cut(), ts.LocalLink)
		if raids != nil {
			s.RAID = &raids[i]
			s.RAID.InitFrom(sim, l.names.Str("raid:").Str(s.Name).Cut(), *ts.Server.RAID, &l.parts)
		}
		tier.Servers[i] = s
	}
	if ts.SAN != nil {
		tier.SAN = next(&l.sans)
		tier.SAN.InitFrom(sim, l.names.Str("san:").Str(dc.Name).Str(":").Str(ts.Name).Cut(), *ts.SAN, &l.parts)
		tier.SANLink = l.link(sim, l.names.Str("slink:").Str(dc.Name).Str(":").Str(ts.Name).Cut(), *ts.SANLink)
	}
	return tier
}

// pool sets up the client pool of dc: it registers the pool's delay line
// "clocal:<dc>", then slot i's NIC as "cnic:<dc>:<i>" in slot order.
func (l *layout) pool(sim *core.Simulation, dc *DataCenter, spec ClientSpec) *ClientPool {
	p := next(&l.pools)
	*p = ClientPool{
		DC:    dc,
		Spec:  spec,
		Slots: take(&l.slots, spec.Slots),
		Local: l.line(sim, l.names.Str("clocal:").Str(dc.Name).Cut()),
	}
	nics := take(&l.nics, spec.Slots)
	for i := range p.Slots {
		nics[i].Init(sim, l.names.Str("cnic:").Str(dc.Name).Str(":").Int(i).Cut(), spec.NICGbps)
		p.Slots[i] = ClientSlot{Index: i, NIC: &nics[i], Pool: p}
	}
	return p
}
