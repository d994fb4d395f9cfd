package topology

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hardware"
)

// Cost is the hardware-agnostic parameter array R carried by every cascade
// message (§3.3.2): computational (Rp), network (Rt), memory (Rm) and disk
// (Rd) cost of the relationship between two holons.
type Cost struct {
	CPUCycles float64 // Rp — cycles consumed at the destination CPU
	NetBytes  float64 // Rt — bytes moved across the network path
	MemBytes  float64 // Rm — bytes held at the destination during processing
	DiskBytes float64 // Rd — bytes read/written at the destination storage
}

// Add returns the component-wise sum of two cost arrays.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		CPUCycles: c.CPUCycles + o.CPUCycles,
		NetBytes:  c.NetBytes + o.NetBytes,
		MemBytes:  c.MemBytes + o.MemBytes,
		DiskBytes: c.DiskBytes + o.DiskBytes,
	}
}

// Scale returns the cost multiplied by f.
func (c Cost) Scale(f float64) Cost {
	return Cost{
		CPUCycles: c.CPUCycles * f,
		NetBytes:  c.NetBytes * f,
		MemBytes:  c.MemBytes * f,
		DiskBytes: c.DiskBytes * f,
	}
}

type endpointKind uint8

const (
	epClient endpointKind = iota
	epServer
	epDaemon
)

// Endpoint is a resolved message endpoint: a concrete client slot, server
// instance or daemon process. The cascade executor resolves role references
// (client, Tapp, Tdb, ...) into endpoints at expansion time, applying load
// balancing.
type Endpoint struct {
	kind   endpointKind
	dc     *DataCenter
	server *Server
	client *ClientSlot
}

// ClientEndpoint wraps a client slot.
func ClientEndpoint(slot *ClientSlot) Endpoint {
	return Endpoint{kind: epClient, dc: slot.Pool.DC, client: slot}
}

// ServerEndpoint wraps a server instance.
func ServerEndpoint(s *Server) Endpoint {
	return Endpoint{kind: epServer, dc: s.Tier.DC, server: s}
}

// DaemonEndpoint wraps the daemon process of a data center.
func DaemonEndpoint(dc *DataCenter) Endpoint {
	return Endpoint{kind: epDaemon, dc: dc}
}

// DC returns the endpoint's data center.
func (e Endpoint) DC() *DataCenter { return e.dc }

// Server returns the endpoint's server (nil for clients and daemons).
func (e Endpoint) Server() *Server { return e.server }

// daemonGHz converts daemon-side cycle costs to time; daemon processes are
// lightweight schedulers (§6.4.3) hosted without hardware contention.
const daemonGHz = 2.0

// Path returns the DC-name sequence from one data center to another,
// including both endpoints. Routing prefers paths made entirely of live
// primary links, even longer ones; backup links (L_EU->AFR, L_EU->AS1 in
// Fig. 6-4) are only considered when no primary route survives — which is
// why they sit at 0% utilization in Tables 6.1 and 7.3.
func (inf *Infrastructure) Path(from, to string) ([]string, error) {
	key := wanKey{from, to}
	if p, ok := inf.routeCache[key]; ok {
		return p, nil
	}
	if from == to {
		p := []string{from}
		inf.routeCache[key] = p
		return p, nil
	}
	path := inf.bfs(from, to, false)
	if path == nil {
		path = inf.bfs(from, to, true)
	}
	if path == nil {
		return nil, fmt.Errorf("topology: no route %s -> %s", from, to)
	}
	inf.routeCache[key] = path
	return path, nil
}

// bfs searches shortest hop count over live primary links, optionally also
// crossing live backup links. Deterministic tie-break by DC name order.
func (inf *Infrastructure) bfs(from, to string, useBackups bool) []string {
	prev := map[string]string{from: from}
	frontier := []string{from}
	for len(frontier) > 0 && prev[to] == "" {
		var next []string
		for _, cur := range frontier {
			for _, nb := range inf.dcOrder {
				if _, seen := prev[nb]; seen {
					continue
				}
				l := inf.primaryLink(cur, nb)
				if l == nil && useBackups {
					l = inf.backupAlive(cur, nb)
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

// primaryLink returns the live primary directed link, or nil.
func (inf *Infrastructure) primaryLink(from, to string) *hardware.Link {
	if l := inf.links[wanKey{from, to}]; l != nil && !l.Failed() {
		return l
	}
	return nil
}

// backupAlive returns the live backup directed link, or nil.
func (inf *Infrastructure) backupAlive(from, to string) *hardware.Link {
	if l := inf.backups[wanKey{from, to}]; l != nil && !l.Failed() {
		return l
	}
	return nil
}

// usableLink returns the live directed link between adjacent DCs: the
// primary if alive, else the backup if alive, else nil.
func (inf *Infrastructure) usableLink(from, to string) *hardware.Link {
	if l := inf.links[wanKey{from, to}]; l != nil && !l.Failed() {
		return l
	}
	if l := inf.backups[wanKey{from, to}]; l != nil && !l.Failed() {
		return l
	}
	return nil
}

// ExpandHop expands one cascade message between two holons into a message
// plan that owns its stage slice. Callers expanding many messages should
// reuse one buffer through AppendHop instead.
func (inf *Infrastructure) ExpandHop(from, to Endpoint, cost Cost) (core.MessagePlan, error) {
	// Origin NIC+link, the same-DC switch, destination link+NIC and the
	// processing stages fit in 12, with room for a short WAN path.
	stages, err := inf.AppendHop(make([]core.Stage, 0, 12), from, to, cost)
	if err != nil {
		return core.MessagePlan{}, err
	}
	return core.MessagePlan{Stages: stages}, nil
}

// appendStage appends a queued stage unless its demand is zero.
func appendStage(dst []core.Stage, q core.QueueAgent, demand float64) []core.Stage {
	if demand > 0 {
		dst = append(dst, core.Stage{Queue: q, Demand: demand})
	}
	return dst
}

// AppendHop expands one cascade message between two holons into the chain
// of hardware stages it traverses and appends them to dst, implementing the
// decomposition of Eqs. 3.2-3.5: origin NIC, network path (local links,
// switches, WAN links), destination NIC, then destination processing
// (memory occupancy, CPU cycles and storage access with cache-hit bypass).
// It allocates only when dst lacks capacity. On error dst is returned
// unextended.
func (inf *Infrastructure) AppendHop(dst []core.Stage, from, to Endpoint, cost Cost) ([]core.Stage, error) {
	stages := dst
	net := cost.NetBytes

	// Origin side: NIC then egress to the DC switch.
	switch from.kind {
	case epClient:
		stages = appendStage(stages, from.client.NIC, net)
		stages = appendStage(stages, from.dc.ClientLink, net)
	case epServer:
		stages = appendStage(stages, from.server.NIC, net)
		stages = appendStage(stages, from.server.Link, net)
	case epDaemon:
		// Daemons attach directly to the DC switch fabric.
	}

	// Network fabric: switches and WAN links along the DC path. The
	// same-DC case — the bulk of intra-platform traffic — touches only the
	// local switch, without a route lookup.
	switch {
	case net <= 0:
	case from.dc == to.dc:
		stages = appendStage(stages, from.dc.Switch, net)
	default:
		path, err := inf.Path(from.dc.Name, to.dc.Name)
		if err != nil {
			return dst, err
		}
		stages = appendStage(stages, inf.DCs[path[0]].Switch, net)
		for i := 1; i < len(path); i++ {
			l := inf.usableLink(path[i-1], path[i])
			if l == nil {
				return dst, fmt.Errorf("topology: link %s->%s vanished", path[i-1], path[i])
			}
			stages = appendStage(stages, l, net)
			stages = appendStage(stages, inf.DCs[path[i]].Switch, net)
		}
	}

	// Destination side: ingress, NIC, then processing.
	switch to.kind {
	case epClient:
		stages = appendStage(stages, to.dc.ClientLink, net)
		stages = appendStage(stages, to.client.NIC, net)
		pool := to.client.Pool
		if d := pool.LocalDelay(cost.CPUCycles, cost.DiskBytes); d > 0 {
			stages = append(stages, core.Stage{Queue: pool.Local, Delay: d})
		}
	case epDaemon:
		if cost.CPUCycles > 0 {
			stages = append(stages, core.Stage{
				Queue: to.dc.Daemon,
				Delay: cost.CPUCycles / (daemonGHz * 1e9),
			})
		}
	case epServer:
		stages = appendStage(stages, to.server.Link, net)
		stages = appendStage(stages, to.server.NIC, net)
		stages = appendServerProcessing(stages, to.server, cost)
	}
	return stages, nil
}

// appendServerProcessing appends the destination-holon stages at a server:
// memory occupancy held across CPU service and the storage access, with the
// storage stage bypassed on a memory cache hit (Fig. 3-5).
func appendServerProcessing(stages []core.Stage, srv *Server, cost Cost) []core.Stage {
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
		first, last := &stages[start], &stages[len(stages)-1]
		first.Hold, first.HoldAmount, first.Acquire = srv.Mem, cost.MemBytes, true
		last.Hold, last.HoldAmount, last.Release = srv.Mem, cost.MemBytes, true
	}
	return stages
}
