package topology

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hardware"
)

// ShardPlan is a per-datacenter partition of the infrastructure: every
// agent of a data center — switch, client link, daemon line, tier
// hardware, SAN, clients — lands on its DC's shard, and each directed WAN
// link lands on the shard of its destination DC. It was the input of the
// sharded span runtime, which was removed; the simulation no longer reads
// it, and it is kept only because the benchmark harness (bench/) times
// PartitionByDC.
type ShardPlan struct {
	// Shards is the shard count the plan was built for.
	Shards int
	// Assign maps core.AgentID to owning shard, sized to the agent
	// population at build time.
	Assign []int32
	// DCShard maps each data-center name to its shard.
	DCShard map[string]int
	// LookaheadSec[w] is the conservative lookahead bound of shard w: the
	// minimum latency, in seconds, over all WAN links (primary and
	// backup) entering the shard from another shard — the classic
	// distance-based PDES window. +Inf when nothing enters the shard.
	LookaheadSec []float64
}

// PartitionByDC builds the per-datacenter shard plan: data centers in
// sorted name order are dealt round-robin onto the shards, so DC i lands
// on shard i mod n. Shard counts above the DC count leave the surplus
// shards empty.
func (inf *Infrastructure) PartitionByDC(shards int) (*ShardPlan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("topology: shard count %d < 1", shards)
	}
	p := &ShardPlan{
		Shards:       shards,
		Assign:       make([]int32, inf.sim.AgentCount()),
		DCShard:      make(map[string]int, len(inf.dcOrder)),
		LookaheadSec: make([]float64, shards),
	}
	for w := range p.LookaheadSec {
		p.LookaheadSec[w] = math.Inf(1)
	}
	// Agents not reached by the structural walk below (none today; custom
	// agents registered outside Build would be) default to ID modulo n.
	for id := range p.Assign {
		p.Assign[id] = int32(id % shards)
	}
	assign := func(w int, ids ...core.AgentID) {
		for _, id := range ids {
			p.Assign[id] = int32(w)
		}
	}
	for i, name := range inf.dcOrder {
		w := i % shards
		p.DCShard[name] = w
		dc := inf.DCs[name]
		assign(w, dc.Switch.ID(), dc.ClientLink.ID(), dc.Daemon.ID())
		for _, tier := range dc.Tiers {
			for _, srv := range tier.Servers {
				assign(w, srv.CPU.ID(), srv.NIC.ID(), srv.Link.ID())
				if srv.RAID != nil {
					assign(w, srv.RAID.ID())
				}
			}
			if tier.SAN != nil {
				assign(w, tier.SAN.ID(), tier.SANLink.ID())
			}
		}
		if dc.Clients != nil {
			assign(w, dc.Clients.Local.ID())
			for i := range dc.Clients.Slots {
				assign(w, dc.Clients.Slots[i].NIC.ID())
			}
		}
	}
	for _, set := range []map[wanKey]*hardware.Link{inf.links, inf.backups} {
		for k, l := range set {
			wd := p.DCShard[k.to]
			assign(wd, l.ID())
			if ws := p.DCShard[k.from]; ws != wd {
				if lat := l.Latency(); lat < p.LookaheadSec[wd] {
					p.LookaheadSec[wd] = lat
				}
			}
		}
	}
	return p, nil
}
