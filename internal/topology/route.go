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

// route is one compiled entry of the route table: the network fabric of an
// ordered data-center pair ready to copy into a message's stages — source
// switch, then (WAN link, switch) per hop — or the error when the pair is
// partitioned. Which links a route crosses is decided when it is built, as
// of that routeVersion; FailWAN, RestoreWAN, IsolateDC and RejoinDC are the
// only operations that change the answer, and each bumps the version. A
// rebuild refills the fabric in place — messages copy it, nobody keeps it —
// so an entry allocates it once; the DC-name path is only read off it when
// Path asks, and a rebuild drops it rather than overwriting a slice a
// caller may hold.
type route struct {
	version int // routeVersion+1 this entry was built at; 0 = never built
	fabric  []core.QueueAgent
	path    []string // Path's answer, built on its first call since the rebuild
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
	fabric := r.fabric[:0]
	if fabric == nil {
		fabric = make([]core.QueueAgent, 0, 2*len(inf.dcs)-1) // the longest path
	}
	*r = route{version: inf.routeVersion + 1}
	f, t := from.index, to.index
	if f != t && !inf.search(f, t, false) && !inf.search(f, t, true) {
		r.err = &NoRouteError{From: from.Name, To: to.Name}
		return r
	}
	// The search left the path in prev, from t back to f: lay the fabric
	// out back to front.
	hops := 0
	for c := t; c != f; c = inf.prev[c] {
		hops++
	}
	r.fabric = fabric[:2*hops+1]
	r.fabric[0] = from.Switch
	for c, i := t, 2*hops; c != f; c, i = inf.prev[c], i-2 {
		r.fabric[i] = inf.dcs[c].Switch
		r.fabric[i-1] = inf.usableLink(inf.prev[c], c)
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
	if r.err != nil {
		return nil, r.err
	}
	if r.path == nil {
		r.path = make([]string, 0, len(r.fabric)/2+1)
		for i := 0; i < len(r.fabric); i += 2 {
			r.path = append(r.path, inf.switchDC(r.fabric[i]).Name)
		}
	}
	return r.path, nil
}

// switchDC returns the data center whose switch q is.
func (inf *Infrastructure) switchDC(q core.QueueAgent) *DataCenter {
	for _, dc := range inf.dcs {
		if core.QueueAgent(dc.Switch) == q {
			return dc
		}
	}
	panic("topology: route fabric holds a switch of no data center")
}

// search runs a breadth-first search from DC index from to DC index to
// over live primary links, optionally also crossing live backup links, and
// reports whether it reached to; prev then holds each reached DC's parent.
// Neighbours are tried in ascending index, which is name order (dcs is
// sorted), so among shortest paths the tie-break is by name. It walks the
// dense link table with the scratch Build sized, so it allocates nothing.
func (inf *Infrastructure) search(from, to int, useBackups bool) bool {
	n, prev := len(inf.dcs), inf.prev
	for i := range prev {
		prev[i] = -1
	}
	prev[from] = from
	queue := append(inf.queue[:0], from)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for nb := range n {
			if prev[nb] >= 0 {
				continue
			}
			w := inf.wan[cur*n+nb]
			if !live(w.primary) && !(useBackups && live(w.backup)) {
				continue
			}
			prev[nb] = cur
			if nb == to {
				return true
			}
			queue = append(queue, nb)
		}
	}
	return false
}

// live reports whether l is a link that has not failed.
func live(l *hardware.Link) bool { return l != nil && !l.Failed() }

// usableLink returns the live directed link between adjacent DCs, by index:
// the primary if alive, else the backup if alive, else nil.
func (inf *Infrastructure) usableLink(from, to int) *hardware.Link {
	w := inf.wan[from*len(inf.dcs)+to]
	if live(w.primary) {
		return w.primary
	}
	if live(w.backup) {
		return w.backup
	}
	return nil
}

// ExpandHop expands one cascade message between two holons into a message
// plan that owns its storage. Callers expanding many messages should reuse
// one plan through AppendHop instead.
func (inf *Infrastructure) ExpandHop(from, to Endpoint, cost Cost) (core.MessagePlan, error) {
	// Origin NIC+link, the same-DC switch, destination link+NIC and the
	// processing stages fit in 12, with room for a short WAN path; a hop
	// holds at most its destination server's memory. One allocation backs
	// both.
	buf := new(struct {
		stages [12]core.Stage
		holds  [1]core.Hold
	})
	plan := core.MessagePlan{Stages: buf.stages[:0], Holds: buf.holds[:0]}
	if err := inf.AppendHop(&plan, from, to, cost); err != nil {
		return core.MessagePlan{}, err
	}
	return plan, nil
}

// netStage is a network stage: bytes through a NIC, link or switch.
func netStage(q core.QueueAgent, bytes float64) core.Stage {
	return core.Stage{Queue: q, Demand: bytes}
}

// Draw is the outcome of the memory-cache draw a message takes at its
// destination (Memory.Hit): whether the storage access it carries is served
// from memory. A message that reads no storage, or ends at no server, takes
// no draw.
type Draw uint8

const (
	NoDraw Draw = iota // the message takes no draw
	Miss               // the storage stages run
	Hit                // the storage stages are bypassed
)

// AppendHop expands one cascade message between two holons into the chain
// of hardware stages it traverses and appends them to plan, implementing the
// decomposition of Eqs. 3.2-3.5: origin NIC, network path (local links,
// switches, WAN links), destination NIC, then destination processing (CPU
// cycles and storage access with cache-hit bypass, under a memory hold span
// appended to plan.Holds). Span indices are positions in plan.Stages, so
// successive calls chain hops into one message. The network path is a copy
// out of the compiled route table (route), or just the local switch inside
// one data center — the bulk of intra-platform traffic. It allocates only
// when the plan lacks capacity. On error (a *NoRouteError) the plan is left
// unextended and no memory draw is taken.
func (inf *Infrastructure) AppendHop(plan *core.MessagePlan, from, to Endpoint, cost Cost) error {
	_, err := inf.AppendHopDrawn(plan, from, to, cost)
	return err
}

// AppendHopDrawn is AppendHop reporting the outcome of the message's
// memory draw, taken once the route is known to exist.
func (inf *Infrastructure) AppendHopDrawn(plan *core.MessagePlan, from, to Endpoint, cost Cost) (Draw, error) {
	if err := inf.appendNetwork(plan, from, to, cost); err != nil {
		return NoDraw, err
	}
	d := TakeDraw(to, cost)
	appendProcessing(plan, to, cost, d)
	return d, nil
}

// AppendHopAs is AppendHop laid out as the memory draw d came out: it takes
// no draw of its own. d is what TakeDraw returned for the same destination
// and cost.
func (inf *Infrastructure) AppendHopAs(plan *core.MessagePlan, from, to Endpoint, cost Cost, d Draw) error {
	if err := inf.appendNetwork(plan, from, to, cost); err != nil {
		return err
	}
	appendProcessing(plan, to, cost, d)
	return nil
}

// TakeDraw takes the memory draw of a message carrying cost to to: one
// Memory.Hit at the destination server when the message reads storage,
// none otherwise.
func TakeDraw(to Endpoint, cost Cost) Draw {
	switch {
	case to.kind != epServer || !(cost.DiskBytes > 0):
		return NoDraw
	case to.server.Mem.Hit():
		return Hit
	}
	return Miss
}

// appendNetwork appends a message's network stages — origin NIC and link,
// the fabric, destination link and NIC — or, when no route connects the
// two data centers, returns the *NoRouteError with plan unextended.
func (inf *Infrastructure) appendNetwork(plan *core.MessagePlan, from, to Endpoint, cost Cost) error {
	net := cost.NetBytes
	if net <= 0 {
		return nil
	}
	var fabric []core.QueueAgent
	if from.dc != to.dc {
		r := inf.route(from.dc, to.dc)
		if r.err != nil {
			return r.err
		}
		fabric = r.fabric
	}
	stages := plan.Stages

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
	plan.Stages = stages
	return nil
}

// appendProcessing appends the destination processing of a message whose
// memory draw came out d. A delay line's stage demand is its latency.
func appendProcessing(plan *core.MessagePlan, to Endpoint, cost Cost, d Draw) {
	switch to.kind {
	case epClient:
		pool := to.client.Pool
		if d := pool.LocalDelay(cost.CPUCycles, cost.DiskBytes); d > 0 {
			plan.Stages = append(plan.Stages, core.Stage{Queue: pool.Local, Demand: d})
		}
	case epDaemon:
		if cost.CPUCycles > 0 {
			plan.Stages = append(plan.Stages, core.Stage{
				Queue:  to.dc.Daemon,
				Demand: cost.CPUCycles / (daemonGHz * 1e9),
			})
		}
	case epServer:
		appendServerProcessing(plan, to.server, cost, d)
	}
}

// appendServerProcessing appends the destination-holon stages at a server —
// CPU service and the storage access, bypassed when the memory draw d was a
// hit — and the memory hold span across them (Fig. 3-5).
func appendServerProcessing(plan *core.MessagePlan, srv *Server, cost Cost, d Draw) {
	start := len(plan.Stages)
	if cost.CPUCycles > 0 {
		plan.Stages = append(plan.Stages, core.Stage{Queue: srv.CPU, Demand: cost.CPUCycles})
	}
	if d == Miss {
		plan.Stages = srv.AppendStorage(plan.Stages, cost.DiskBytes)
	}
	if end := len(plan.Stages); end > start && cost.MemBytes > 0 {
		plan.Holds = append(plan.Holds, core.Hold{Occ: srv.Mem, Amount: cost.MemBytes, From: int32(start), To: int32(end - 1)})
	}
}

// AppendStorage appends the stages that carry n bytes to the server's
// storage: its RAID, or else its tier's SAN link and then the SAN. A server
// with neither appends nothing.
func (s *Server) AppendStorage(stages []core.Stage, n float64) []core.Stage {
	if s.RAID != nil {
		return append(stages, core.Stage{Queue: s.RAID, Demand: n})
	}
	if t := s.Tier; t.SAN != nil {
		return append(stages, core.Stage{Queue: t.SANLink, Demand: n}, core.Stage{Queue: t.SAN, Demand: n})
	}
	return stages
}
