package topology

import (
	"slices"

	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/names"
)

// RegisterProbes attaches utilization probes for every tier, memory pool,
// storage array, switch and WAN link to the collector, producing the series
// behind the thesis' utilization figures and tables:
//
//	cpu:<dc>:<tier>   — fraction of tier core capacity busy in the window
//	mem:<dc>:<tier>   — fraction of tier memory occupied (point sample)
//	disk:<dc>:<tier>  — fraction of drive capacity busy in the window
//	link:<from>-><to> — fraction of allocated WAN bandwidth used
//	clink:<dc>        — client access link utilization
//	switch:<dc>       — DC switch utilization
//
// The order is fixed by the spec, so two builds of one spec lay out and
// sample their series alike: data centers in sorted order, each with its
// tiers in declaration order (cpu, mem and disk per tier), then its switch
// and client link; then every WAN link, primary or backup, in sorted
// (from, to) order. They register as one batch (AppendProbes), their keys
// cut from one string, and a probe samples its component through a
// pointer, so registering them costs a fixed number of allocations
// whatever the numbers of data centers, tiers or links.
func (inf *Infrastructure) RegisterProbes(col *metrics.Collector) {
	col.Register(inf.AppendProbes(nil)...)
}

// AppendProbes appends the probes RegisterProbes registers, in its order,
// to ps and returns the extended slice, so a caller can register them in
// one batch with probes of its own. A ps short of room grows once.
func (inf *Infrastructure) AppendProbes(ps []metrics.Probe) []metrics.Probe {
	count, size := 0, 0
	inf.eachWAN(func(from, to *DataCenter, _ *hardware.Link) {
		count, size = count+1, size+len("link:->")+len(from.Name)+len(to.Name)
	})
	for _, dc := range inf.dcs {
		n, sz := dc.probeSize()
		count, size = count+n, size+sz
	}
	ps = slices.Grow(ps, count)
	var nb names.Slab
	nb.Grow(size)
	for _, dc := range inf.dcs {
		ps = dc.appendProbes(ps, &nb)
	}
	inf.eachWAN(func(from, to *DataCenter, l *hardware.Link) {
		ps = append(ps, metrics.Probe{Key: nb.Str("link:").Str(from.Name).Str("->").Str(to.Name).Cut(), Sample: (*linkUtil)(l)})
	})
	return ps
}

// probeSize returns how many probes the data center registers and the
// total length of their keys.
func (d *DataCenter) probeSize() (count, size int) {
	size = len("switch:") + len("clink:") + 2*len(d.Name)
	for _, t := range d.tiers {
		size += len("cpu::") + len("mem::") + len("disk::") + 3*(len(d.Name)+len(t.Name))
	}
	return 3*len(d.tiers) + 2, size
}

// appendProbes appends the data center's probes in registration order,
// their keys cut from nb.
func (d *DataCenter) appendProbes(ps []metrics.Probe, nb *names.Slab) []metrics.Probe {
	key := func(kind, tier string) string { return nb.Str(kind).Str(d.Name).Str(":").Str(tier).Cut() }
	for _, t := range d.tiers {
		ps = append(ps,
			metrics.Probe{Key: key("cpu:", t.Name), Sample: (*tierCPU)(t)},
			metrics.Probe{Key: key("mem:", t.Name), Sample: (*tierMem)(t)},
			metrics.Probe{Key: key("disk:", t.Name), Sample: (*tierDisk)(t)})
	}
	return append(ps,
		metrics.Probe{Key: nb.Str("switch:").Str(d.Name).Cut(), Sample: (*switchUtil)(d.Switch)},
		metrics.Probe{Key: nb.Str("clink:").Str(d.Name).Cut(), Sample: (*linkUtil)(d.ClientLink)})
}

// The probes sample their components through pointers of these types, each
// the component itself seen as a metrics.Sampler, so a probe allocates
// nothing of its own.
type (
	tierCPU    Tier
	tierMem    Tier
	tierDisk   Tier
	switchUtil hardware.Switch
	linkUtil   hardware.Link
)

// Sample returns the fraction of the tier's core capacity busy in the
// window.
func (p *tierCPU) Sample(window float64) float64 {
	t := (*Tier)(p)
	busy := 0.0
	for _, s := range t.Servers {
		busy += s.CPU.TakeBusy()
	}
	return busy / (float64(t.TotalCores()) * window)
}

// Sample returns the fraction of the tier's memory occupied now.
func (p *tierMem) Sample(float64) float64 {
	used, capacity := 0.0, 0.0
	for _, s := range p.Servers {
		used += s.Mem.Used()
		capacity += s.Mem.Capacity()
	}
	return used / capacity
}

// Sample returns the tier's storage utilization: drive busy time over
// aggregate drive capacity, across server RAIDs or the tier SAN.
func (p *tierDisk) Sample(window float64) float64 {
	busy, drives := 0.0, 0
	for _, s := range p.Servers {
		if s.RAID != nil {
			busy += s.RAID.TakeBusy()
			drives += s.RAID.Disks()
		}
	}
	if p.SAN != nil {
		busy += p.SAN.TakeBusy()
		drives += p.SAN.Disks()
	}
	if drives == 0 {
		return 0
	}
	return busy / (float64(drives) * window)
}

// Sample returns the switch's busy fraction of the window.
func (p *switchUtil) Sample(window float64) float64 {
	return (*hardware.Switch)(p).TakeBusy() / window
}

// Sample returns the fraction of the link's allocated bandwidth used in the
// window.
func (p *linkUtil) Sample(window float64) float64 {
	l := (*hardware.Link)(p)
	return l.TakeBusy() / (l.Rate() * window)
}
