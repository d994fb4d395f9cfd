package topology

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
)

// TestPartitionByDCKeepsDCsWhole checks the partition rule on the
// two-DC test infrastructure: DCs land round-robin in sorted name order
// (EU on shard 0, NA on shard 1 at two shards), every component of a DC
// lands on its DC's shard, and each WAN link lands on its destination's
// shard.
func TestPartitionByDCKeepsDCsWhole(t *testing.T) {
	sim, inf := buildTestInfra(t)
	defer sim.Shutdown()
	p, err := inf.PartitionByDC(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Assign) != sim.AgentCount() {
		t.Fatalf("assignment covers %d agents, registered %d", len(p.Assign), sim.AgentCount())
	}
	if p.DCShard["EU"] != 0 || p.DCShard["NA"] != 1 {
		t.Fatalf("DC shards %v, want EU=0 NA=1 (sorted round-robin)", p.DCShard)
	}
	for name, dc := range inf.DCs {
		w := int32(p.DCShard[name])
		check := func(id core.AgentID, what string) {
			t.Helper()
			if p.Assign[id] != w {
				t.Errorf("%s %s on shard %d, want %s's shard %d", name, what, p.Assign[id], name, w)
			}
		}
		check(dc.Switch.ID(), "switch")
		check(dc.ClientLink.ID(), "client link")
		check(dc.Daemon.ID(), "daemon")
		for _, tier := range dc.Tiers {
			for _, srv := range tier.Servers {
				check(srv.CPU.ID(), "cpu")
				check(srv.NIC.ID(), "nic")
				check(srv.Link.ID(), "link")
				if srv.RAID != nil {
					check(srv.RAID.ID(), "raid")
				}
			}
			if tier.SAN != nil {
				check(tier.SAN.ID(), "san")
				check(tier.SANLink.ID(), "san link")
			}
		}
		if dc.Clients != nil {
			check(dc.Clients.Local.ID(), "client local queue")
			for i := range dc.Clients.Slots {
				check(dc.Clients.Slots[i].NIC.ID(), "client nic")
			}
		}
	}
	inf.eachWAN(func(from, to *DataCenter, l *hardware.Link) {
		if want := int32(p.DCShard[to.Name]); p.Assign[l.ID()] != want {
			t.Errorf("WAN %s->%s on shard %d, want destination shard %d",
				from.Name, to.Name, p.Assign[l.ID()], want)
		}
	})
}

// TestPartitionLookahead checks the conservative bound: with the two DCs
// on different shards, each shard's lookahead is the 45 ms latency of its
// inbound transatlantic link; with everything on one shard there is no
// inter-shard edge and the bound is +Inf.
func TestPartitionLookahead(t *testing.T) {
	sim, inf := buildTestInfra(t)
	defer sim.Shutdown()
	p, err := inf.PartitionByDC(2)
	if err != nil {
		t.Fatal(err)
	}
	for w, la := range p.LookaheadSec {
		if la != 0.045 {
			t.Errorf("shard %d lookahead %v s, want 0.045 (min inbound WAN latency)", w, la)
		}
	}
	p1, err := inf.PartitionByDC(1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p1.LookaheadSec[0], 1) {
		t.Errorf("single-shard lookahead %v, want +Inf (no inter-shard edges)", p1.LookaheadSec[0])
	}
}

// TestPartitionShardsBeyondDCs checks the tolerated-but-wasteful shape:
// more shards than DCs leaves the surplus shards empty (the declarative
// surfaces reject this before it gets here, the planner itself must not).
func TestPartitionShardsBeyondDCs(t *testing.T) {
	sim, inf := buildTestInfra(t)
	defer sim.Shutdown()
	p, err := inf.PartitionByDC(5)
	if err != nil {
		t.Fatal(err)
	}
	var perShard [5]int
	for _, w := range p.Assign {
		if w < 0 || w >= 5 {
			t.Fatalf("assignment %d out of range", w)
		}
		perShard[w]++
	}
	for w := 2; w < 5; w++ {
		if perShard[w] != 0 {
			t.Errorf("shard %d holds %d agents, want 0 (only 2 DCs)", w, perShard[w])
		}
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Errorf("DC shards hold %d/%d agents, want both populated", perShard[0], perShard[1])
	}

	if _, err := inf.PartitionByDC(0); err == nil {
		t.Error("PartitionByDC(0) succeeded, want error")
	}
}
