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

// NoRouteError reports that no chain of live WAN links — primary or backup
// — connects two data centers: the platform is partitioned between them (or
// one of the names is no data center of this infrastructure).
type NoRouteError struct{ From, To string }

func (e *NoRouteError) Error() string {
	return fmt.Sprintf("topology: no route %s -> %s", e.From, e.To)
}

// route is one compiled entry of the route table: the DC-name path of an
// ordered data-center pair and its network fabric ready to copy into a
// message's stages — source switch, then (WAN link, switch) per hop — or the
// error when the pair is partitioned. Which links a route crosses is decided
// when it is built, as of that routeVersion; FailWAN, RestoreWAN, IsolateDC
// and RejoinDC are the only operations that change the answer, and each
// bumps the version.
type route struct {
	version int // routeVersion+1 this entry was built at; 0 = never built
	path    []string
	fabric  []core.QueueAgent
	err     error
}

// rerouted invalidates every compiled route: the WAN graph changed.
func (inf *Infrastructure) rerouted() { inf.routeVersion++ }

// route returns the compiled route between two data centers of this
// infrastructure, rebuilding it when the WAN graph changed since it was
// built. Routing prefers paths made entirely of live primary links, even
// longer ones; backup links (L_EU->AFR, L_EU->AS1 in Fig. 6-4) are only
// considered when no primary route survives — which is why they sit at 0%
// utilization in Tables 6.1 and 7.3.
//
// The table is shared by every data center and filled lazily, so like the
// WAN mutations it must only be reached from sequential phases — where
// step expansion runs. AppendHop consults it for cross-DC messages only;
// the same-DC fabric is the local switch, no table.
func (inf *Infrastructure) route(from, to *DataCenter) *route {
	r := &inf.routes[from.index*len(inf.dcs)+to.index]
	if r.version == inf.routeVersion+1 {
		return r
	}
	*r = route{version: inf.routeVersion + 1}
	if from == to {
		r.path = []string{from.Name}
		r.fabric = []core.QueueAgent{from.Switch}
		return r
	}
	path := inf.bfs(from.Name, to.Name, false)
	if path == nil {
		path = inf.bfs(from.Name, to.Name, true)
	}
	if path == nil {
		r.err = &NoRouteError{From: from.Name, To: to.Name}
		return r
	}
	r.path = path
	r.fabric = append(make([]core.QueueAgent, 0, 2*len(path)-1), from.Switch)
	for i := 1; i < len(path); i++ {
		r.fabric = append(r.fabric, inf.usableLink(path[i-1], path[i]), inf.DCs[path[i]].Switch)
	}
	return r
}

// Path returns the DC-name sequence from one data center to another,
// including both endpoints, as of the current state of the WAN links (see
// route for the preference order). The slice belongs to the route table:
// callers must not modify it. A partitioned or unknown pair yields a
// *NoRouteError.
func (inf *Infrastructure) Path(from, to string) ([]string, error) {
	f, t := inf.DCs[from], inf.DCs[to]
	if f == nil || t == nil {
		return nil, &NoRouteError{From: from, To: to}
	}
	r := inf.route(f, t)
	return r.path, r.err
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
	if l := inf.primaryLink(from, to); l != nil {
		return l
	}
	return inf.backupAlive(from, to)
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

// netStage is a network stage: bytes through a NIC, link or switch.
func netStage(q core.QueueAgent, bytes float64) core.Stage {
	return core.Stage{Queue: q, Demand: bytes}
}

// AppendHop expands one cascade message between two holons into the chain
// of hardware stages it traverses and appends them to dst, implementing the
// decomposition of Eqs. 3.2-3.5: origin NIC, network path (local links,
// switches, WAN links), destination NIC, then destination processing
// (memory occupancy, CPU cycles and storage access with cache-hit bypass).
// The network path is a copy out of the compiled route table (route), or
// just the local switch inside one data center — the bulk of intra-platform
// traffic. It allocates only when dst lacks capacity. On error (a
// *NoRouteError) dst is returned unextended.
func (inf *Infrastructure) AppendHop(dst []core.Stage, from, to Endpoint, cost Cost) ([]core.Stage, error) {
	stages := dst
	if net := cost.NetBytes; net > 0 {
		var fabric []core.QueueAgent
		if from.dc != to.dc {
			r := inf.route(from.dc, to.dc)
			if r.err != nil {
				return dst, r.err
			}
			fabric = r.fabric
		}

		// Origin side: NIC then egress to the DC switch. Daemons attach
		// directly to the switch fabric.
		switch from.kind {
		case epClient:
			stages = append(stages, netStage(from.client.NIC, net), netStage(from.dc.ClientLink, net))
		case epServer:
			stages = append(stages, netStage(from.server.NIC, net), netStage(from.server.Link, net))
		}

		if fabric == nil {
			stages = append(stages, netStage(from.dc.Switch, net))
		}
		for _, q := range fabric {
			stages = append(stages, netStage(q, net))
		}

		// Destination side: ingress link, then NIC.
		switch to.kind {
		case epClient:
			stages = append(stages, netStage(to.dc.ClientLink, net), netStage(to.client.NIC, net))
		case epServer:
			stages = append(stages, netStage(to.server.Link, net), netStage(to.server.NIC, net))
		}
	}

	// Destination processing.
	switch to.kind {
	case epClient:
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
