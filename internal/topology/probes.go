package topology

import (
	"cmp"
	"maps"
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
// (from, to) order. Each data center is one batch, and the WAN links
// another: its keys are cut from one string, and a probe samples its
// component through a pointer, so a batch costs a fixed number of
// allocations whatever its number of tiers or links.
func (inf *Infrastructure) RegisterProbes(col *metrics.Collector) { inf.registerProbes(col) }

// registrar is what registerProbes needs of a collector.
type registrar interface{ Register(ps ...metrics.Probe) }

func (inf *Infrastructure) registerProbes(col registrar) {
	for _, dc := range inf.dcs {
		col.Register(dc.probes()...)
	}
	keys := slices.AppendSeq(slices.Collect(maps.Keys(inf.links)), maps.Keys(inf.backups))
	slices.SortFunc(keys, func(a, b wanKey) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	size := 0
	for _, k := range keys {
		size += len("link:->") + len(k.from) + len(k.to)
	}
	var nb names.Slab
	nb.Grow(size)
	ps := make([]metrics.Probe, len(keys))
	for i, k := range keys {
		l := inf.links[k]
		if l == nil {
			l = inf.backups[k]
		}
		ps[i] = metrics.Probe{Key: nb.Str("link:").Str(k.from).Str("->").Str(k.to).Cut(), Sample: (*linkUtil)(l)}
	}
	col.Register(ps...)
}

// probes returns the data center's probes in registration order.
func (d *DataCenter) probes() []metrics.Probe {
	size := len("switch:") + len("clink:") + 2*len(d.Name)
	for _, t := range d.tiers {
		size += len("cpu::") + len("mem::") + len("disk::") + 3*(len(d.Name)+len(t.Name))
	}
	var nb names.Slab
	nb.Grow(size)
	key := func(kind, tier string) string { return nb.Str(kind).Str(d.Name).Str(":").Str(tier).Cut() }
	ps := make([]metrics.Probe, 0, 3*len(d.tiers)+2)
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
