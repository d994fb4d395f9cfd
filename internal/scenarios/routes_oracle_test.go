package scenarios

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/topology"
)

// This file is the expansion path as it stood before routes were compiled
// (commit 62ec1c9), kept as the oracle TestCompiledRoutesMatchOracle and
// FuzzCompiledRoutesMatchOracle compare the production path against:
// cascade.Binding.Resolve with its map[End]*Server and the HasTier/Tier
// lookups by tier name, and topology.Infrastructure.AppendHop walking a
// route cached by data-center-name pair, hashing names per WAN hop. It is
// the old code moved here, changed only where it reached unexported state:
// endpoints are the oracle's own struct, the WAN graph is read through
// WANLink/BackupLink, and a tier missing even at the master is an error
// instead of a panic, so generated operations can name any role. Memory
// occupancy is recorded the way plans carry it now, as one hold span per
// server hop (core.Hold) instead of flags on the first and last stage.

type oracleEndKind uint8

const (
	oracleClient oracleEndKind = iota
	oracleServer
	oracleDaemon
)

type oracleEndpoint struct {
	kind   oracleEndKind
	dc     *topology.DataCenter
	server *topology.Server
	client *topology.ClientSlot
}

type oracleBinding struct {
	Inf     *oracleRouter
	Local   *topology.DataCenter
	Master  *topology.DataCenter
	Slot    *topology.ClientSlot
	Balance func(*topology.Tier) *topology.Server

	servers map[cascade.End]*topology.Server
}

func newOracleBinding(inf *oracleRouter, local, master *topology.DataCenter) *oracleBinding {
	b := &oracleBinding{Inf: inf, Local: local, Master: master}
	if local.Clients != nil {
		b.Slot = local.Clients.Next()
	}
	return b
}

func (b *oracleBinding) site(s cascade.Site) *topology.DataCenter {
	if s == cascade.SiteMaster {
		return b.Master
	}
	return b.Local
}

func (b *oracleBinding) Resolve(e cascade.End) (oracleEndpoint, error) {
	dc := b.site(e.Site)
	switch e.Role {
	case cascade.Client:
		if b.Slot == nil {
			return oracleEndpoint{}, fmt.Errorf("cascade: DC %s has no client population", b.Local.Name)
		}
		return oracleEndpoint{kind: oracleClient, dc: b.Slot.Pool.DC, client: b.Slot}, nil
	case cascade.Daemon:
		return oracleEndpoint{kind: oracleDaemon, dc: dc}, nil
	default:
		// Tiers missing at the chosen site fall back to the master.
		if !dc.HasTier(string(e.Role)) {
			dc = b.Master
		}
		if !dc.HasTier(string(e.Role)) {
			return oracleEndpoint{}, fmt.Errorf("cascade: DC %s has no tier %q", dc.Name, string(e.Role))
		}
		tier := dc.Tier(string(e.Role))
		if b.servers == nil {
			b.servers = make(map[cascade.End]*topology.Server)
		}
		key := cascade.End{Role: e.Role, Site: e.Site}
		srv := b.servers[key]
		if srv == nil {
			if b.Balance != nil {
				srv = b.Balance(tier)
			} else {
				srv = tier.Pick()
			}
			b.servers[key] = srv
		}
		return oracleEndpoint{kind: oracleServer, dc: srv.Tier.DC, server: srv}, nil
	}
}

// oracleRouter is the string-keyed router: Path cached per name pair and
// dropped wholesale whenever the WAN graph changes.
type oracleRouter struct {
	inf        *topology.Infrastructure
	routeCache map[[2]string][]string
}

func newOracleRouter(inf *topology.Infrastructure) *oracleRouter {
	return &oracleRouter{inf: inf, routeCache: map[[2]string][]string{}}
}

// rerouted is what FailWAN, RestoreWAN, IsolateDC and RejoinDC did to the
// cache.
func (r *oracleRouter) rerouted() { r.routeCache = map[[2]string][]string{} }

func (r *oracleRouter) Path(from, to string) ([]string, error) {
	key := [2]string{from, to}
	if p, ok := r.routeCache[key]; ok {
		return p, nil
	}
	if from == to {
		p := []string{from}
		r.routeCache[key] = p
		return p, nil
	}
	path := r.bfs(from, to, false)
	if path == nil {
		path = r.bfs(from, to, true)
	}
	if path == nil {
		return nil, fmt.Errorf("topology: no route %s -> %s", from, to)
	}
	r.routeCache[key] = path
	return path, nil
}

func (r *oracleRouter) bfs(from, to string, useBackups bool) []string {
	prev := map[string]string{from: from}
	frontier := []string{from}
	for len(frontier) > 0 && prev[to] == "" {
		var next []string
		for _, cur := range frontier {
			for _, nb := range r.inf.DCNames() {
				if _, seen := prev[nb]; seen {
					continue
				}
				l := r.primaryLink(cur, nb)
				if l == nil && useBackups {
					l = r.backupAlive(cur, nb)
				}
				if l == nil {
					continue
				}
				prev[nb] = cur
				next = append(next, nb)
			}
		}
		frontier = next
	}
	if prev[to] == "" {
		return nil
	}
	var rev []string
	for cur := to; cur != from; cur = prev[cur] {
		rev = append(rev, cur)
	}
	path := make([]string, 0, len(rev)+1)
	path = append(path, from)
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path
}

func (r *oracleRouter) primaryLink(from, to string) *hardware.Link {
	if l := r.inf.WANLink(from, to); l != nil && !l.Failed() {
		return l
	}
	return nil
}

func (r *oracleRouter) backupAlive(from, to string) *hardware.Link {
	if l := r.inf.BackupLink(from, to); l != nil && !l.Failed() {
		return l
	}
	return nil
}

func (r *oracleRouter) usableLink(from, to string) *hardware.Link {
	if l := r.primaryLink(from, to); l != nil {
		return l
	}
	return r.backupAlive(from, to)
}

func oracleAppendStage(dst []core.Stage, q core.QueueAgent, demand float64) []core.Stage {
	if demand > 0 {
		dst = append(dst, core.Stage{Queue: q, Demand: demand})
	}
	return dst
}

const oracleDaemonGHz = 2.0

func (r *oracleRouter) AppendHop(plan *core.MessagePlan, from, to oracleEndpoint, cost topology.Cost) error {
	dst := plan.Stages
	stages := dst
	net := cost.NetBytes

	switch from.kind {
	case oracleClient:
		stages = oracleAppendStage(stages, from.client.NIC, net)
		stages = oracleAppendStage(stages, from.dc.ClientLink, net)
	case oracleServer:
		stages = oracleAppendStage(stages, from.server.NIC, net)
		stages = oracleAppendStage(stages, from.server.Link, net)
	case oracleDaemon:
	}

	switch {
	case net <= 0:
	case from.dc == to.dc:
		stages = oracleAppendStage(stages, from.dc.Switch, net)
	default:
		path, err := r.Path(from.dc.Name, to.dc.Name)
		if err != nil {
			return err
		}
		stages = oracleAppendStage(stages, r.inf.DCs[path[0]].Switch, net)
		for i := 1; i < len(path); i++ {
			l := r.usableLink(path[i-1], path[i])
			if l == nil {
				return fmt.Errorf("topology: link %s->%s vanished", path[i-1], path[i])
			}
			stages = oracleAppendStage(stages, l, net)
			stages = oracleAppendStage(stages, r.inf.DCs[path[i]].Switch, net)
		}
	}

	switch to.kind {
	case oracleClient:
		stages = oracleAppendStage(stages, to.dc.ClientLink, net)
		stages = oracleAppendStage(stages, to.client.NIC, net)
		pool := to.client.Pool
		if d := pool.LocalDelay(cost.CPUCycles, cost.DiskBytes); d > 0 {
			stages = append(stages, core.Stage{Queue: pool.Local, Demand: d})
		}
	case oracleDaemon:
		if cost.CPUCycles > 0 {
			stages = append(stages, core.Stage{
				Queue:  to.dc.Daemon,
				Demand: cost.CPUCycles / (oracleDaemonGHz * 1e9),
			})
		}
	case oracleServer:
		stages = oracleAppendStage(stages, to.server.Link, net)
		stages = oracleAppendStage(stages, to.server.NIC, net)
		stages, plan.Holds = oracleServerProcessing(stages, plan.Holds, to.server, cost)
	}
	plan.Stages = stages
	return nil
}

func oracleServerProcessing(stages []core.Stage, holds []core.Hold, srv *topology.Server, cost topology.Cost) ([]core.Stage, []core.Hold) {
	start := len(stages)
	if cost.CPUCycles > 0 {
		stages = append(stages, core.Stage{Queue: srv.CPU, Demand: cost.CPUCycles})
	}
	if cost.DiskBytes > 0 && !srv.Mem.Hit() {
		if srv.RAID != nil {
			stages = append(stages, core.Stage{Queue: srv.RAID, Demand: cost.DiskBytes})
		} else if tier := srv.Tier; tier.SAN != nil {
			stages = append(stages,
				core.Stage{Queue: tier.SANLink, Demand: cost.DiskBytes},
				core.Stage{Queue: tier.SAN, Demand: cost.DiskBytes},
			)
		}
	}
	if len(stages) > start && cost.MemBytes > 0 {
		holds = append(holds, core.Hold{Occ: srv.Mem, Amount: cost.MemBytes, From: int32(start), To: int32(len(stages) - 1)})
	}
	return stages, holds
}

// expandStep is the old expander.expand for one step: per message, resolve
// from then to, then append the hop.
func (b *oracleBinding) expandStep(msgs []cascade.Msg) ([]core.MessagePlan, error) {
	var out []core.MessagePlan
	for _, m := range msgs {
		from, err := b.Resolve(m.From)
		if err != nil {
			return nil, err
		}
		to, err := b.Resolve(m.To)
		if err != nil {
			return nil, err
		}
		var plan core.MessagePlan
		if err := b.Inf.AppendHop(&plan, from, to, m.Cost); err != nil {
			return nil, err
		}
		out = append(out, plan)
	}
	return out, nil
}
