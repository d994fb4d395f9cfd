package hardware

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/queueing"
)

// NIC models a network interface card as an M/M/1 FCFS queue (Fig. 3-6
// left). Demands are bytes; the rate derives from the card speed.
type NIC struct {
	core.AgentBase
	q    *queueing.FCFS
	rate float64
	done queueing.DoneFunc // BufferDone, bound once (see stepBulk)
}

// NewNIC creates and registers a NIC with speed in Gbps.
func NewNIC(sim *core.Simulation, name string, gbps float64) *NIC {
	if gbps <= 0 {
		panic(fmt.Sprintf("hardware: invalid NIC speed %v Gbps", gbps))
	}
	rate := gbps * 1e9 / 8 // bytes per second
	n := &NIC{q: queueing.NewFCFS(1, rate), rate: rate}
	n.q.SetNotify(n.MarkDirty)
	n.done = n.BufferDone
	n.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(n)
	return n
}

// Rate returns the service rate in bytes/second.
func (n *NIC) Rate() float64 { return n.rate }

// Enqueue adds a transfer task (Demand in bytes), after catching up any
// ticks the bulk-dense loop deferred. The queue's notify hook forwards the
// activation/invalidation to the agent.
func (n *NIC) Enqueue(t *queueing.Task) {
	n.Sync()
	n.q.Enqueue(t)
}

// Step advances the queue.
func (n *NIC) Step(dt float64) { n.q.Step(dt, n.BufferDone) }

// StepN advances the queue through nticks quiet ticks in bulk.
func (n *NIC) StepN(nticks int, dt float64) { stepBulk(n.q, nticks, dt, n.done) }

// Idle reports whether the NIC has no work.
func (n *NIC) Idle() bool { return n.q.Idle() }

// Horizon returns the time until the NIC's next completion.
func (n *NIC) Horizon() float64 { return n.q.Horizon() }

// TakeBusy returns busy seconds since the last call.
func (n *NIC) TakeBusy() float64 { return n.q.TakeBusy() }

// Switch models a network switch as an M/M/1 FCFS queue (Fig. 3-6 center),
// typically an order of magnitude faster than the NICs it serves.
type Switch struct {
	core.AgentBase
	q    *queueing.FCFS
	rate float64
	done queueing.DoneFunc // BufferDone, bound once (see stepBulk)
}

// NewSwitch creates and registers a switch with speed in Gbps.
func NewSwitch(sim *core.Simulation, name string, gbps float64) *Switch {
	if gbps <= 0 {
		panic(fmt.Sprintf("hardware: invalid switch speed %v Gbps", gbps))
	}
	rate := gbps * 1e9 / 8
	s := &Switch{q: queueing.NewFCFS(1, rate), rate: rate}
	s.q.SetNotify(s.MarkDirty)
	s.done = s.BufferDone
	s.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(s)
	return s
}

// Rate returns the service rate in bytes/second.
func (s *Switch) Rate() float64 { return s.rate }

// Enqueue adds a forwarding task (Demand in bytes), after catching up any
// ticks the bulk-dense loop deferred. The queue's notify hook forwards the
// activation/invalidation to the agent.
func (s *Switch) Enqueue(t *queueing.Task) {
	s.Sync()
	s.q.Enqueue(t)
}

// Step advances the queue.
func (s *Switch) Step(dt float64) { s.q.Step(dt, s.BufferDone) }

// StepN advances the queue through n quiet ticks in bulk.
func (s *Switch) StepN(n int, dt float64) { stepBulk(s.q, n, dt, s.done) }

// Idle reports whether the switch has no work.
func (s *Switch) Idle() bool { return s.q.Idle() }

// Horizon returns the time until the switch's next completion.
func (s *Switch) Horizon() float64 { return s.q.Horizon() }

// TakeBusy returns busy seconds since the last call.
func (s *Switch) TakeBusy() float64 { return s.q.TakeBusy() }

// Link models a network link as an M/M/1/k processor-sharing queue with a
// constant latency (Fig. 3-6 right). Bandwidth is divided uniformly among
// the tasks being served; k bounds the simultaneous connections.
type Link struct {
	core.AgentBase
	q        *queueing.PS
	rate     float64
	capShare float64 // fraction of raw bandwidth allocated to this platform
	failed   bool
	done     queueing.DoneFunc // BufferDone, bound once (see stepBulk)

	// Healthy-state parameters, restored by Repair after a Degrade.
	baseRate    float64
	baseLatency float64
}

// LinkSpec describes a link: bandwidth, latency, connection limit and the
// fraction of the raw bandwidth allocated to the simulated platform (the
// Fortune 500 company caps its applications at 20% of WAN capacity, §6.3.3).
type LinkSpec struct {
	Gbps      float64
	LatencyMS float64
	MaxConn   int     // 0 selects a generous default of 4096
	Allocated float64 // fraction (0,1]; 0 selects 1.0
}

// NewLink creates and registers a link.
func NewLink(sim *core.Simulation, name string, spec LinkSpec) *Link {
	if spec.Gbps <= 0 || spec.LatencyMS < 0 {
		panic(fmt.Sprintf("hardware: invalid LinkSpec %+v", spec))
	}
	if spec.MaxConn <= 0 {
		spec.MaxConn = 4096
	}
	share := spec.Allocated
	if share <= 0 {
		share = 1
	}
	if share > 1 {
		panic(fmt.Sprintf("hardware: link allocation %v > 1", share))
	}
	rate := spec.Gbps * 1e9 / 8 * share // usable bytes/second
	l := &Link{
		q:           queueing.NewPS(rate, spec.MaxConn, spec.LatencyMS/1000),
		rate:        rate,
		capShare:    share,
		baseRate:    rate,
		baseLatency: spec.LatencyMS / 1000,
	}
	l.q.SetNotify(l.MarkDirty)
	l.done = l.BufferDone
	l.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(l)
	return l
}

// Rate returns the usable (allocated) bandwidth in bytes/second.
func (l *Link) Rate() float64 { return l.rate }

// Latency returns the link latency in seconds.
func (l *Link) Latency() float64 { return l.q.Latency() }

// Enqueue adds a transfer (Demand in bytes), after catching up any ticks
// the bulk-dense loop deferred; the queue's notify hook forwards the
// activation/invalidation to the agent. A failed link still accepts
// transfers: failure is a routing-plane event (see Fail), and a message
// whose route was pinned before the failure may reach the link stages
// later — those committed transfers drain normally rather than crashing
// or stalling the flow.
func (l *Link) Enqueue(t *queueing.Task) {
	l.Sync()
	l.q.Enqueue(t)
}

// Step advances the queue.
func (l *Link) Step(dt float64) { l.q.Step(dt, l.BufferDone) }

// StepN advances the queue through n quiet ticks in bulk, falling back to
// per-tick stepping when a completion or latency expiry might fall inside
// the window.
func (l *Link) StepN(n int, dt float64) { stepBulk(l.q, n, dt, l.done) }

// bulkQueue is the method set FCFS and PS share for bulk-stepped replays.
type bulkQueue interface {
	CanBulk(span float64) bool
	BulkStep(n int, dt float64)
	Step(dt float64, done queueing.DoneFunc)
}

// stepBulk advances a queue through n quiet ticks in bulk, replaying tick
// by tick when the no-event guarantee does not hold. done crosses an
// interface call and so escapes: callers pass a func bound at construction,
// not a fresh method value, or every call would allocate one.
func stepBulk(q bulkQueue, n int, dt float64, done queueing.DoneFunc) {
	if q.CanBulk(float64(n) * dt) {
		q.BulkStep(n, dt)
		return
	}
	for i := 0; i < n; i++ {
		q.Step(dt, done)
	}
}

// Idle reports whether the link carries no traffic.
func (l *Link) Idle() bool { return l.q.Idle() }

// Horizon returns the time until the link's next internal event (a latency
// expiry changing the bandwidth share, or a transfer completion).
func (l *Link) Horizon() float64 { return l.q.Horizon() }

// TakeBusy returns bytes transferred since the last call. Utilization of
// the allocated capacity over a window is bytes / (Rate() x window).
func (l *Link) TakeBusy() float64 { return l.q.TakeBusy() }

// Fail marks the link down; Restore brings it back. The semantics are
// complete-then-divert, with commitment at route-pinning (plan expansion)
// time: every message expanded before the failure keeps its route and
// drains through the failed link at full rate as if healthy — the
// abstraction models route withdrawal, not packet loss; a real router
// drains its egress buffers while the routing protocol converges — while
// every message expanded after the failure is diverted, because routing
// (topology.Path / usableLink) refuses failed links. This is the
// deterministic contract the fault suite pins with TestFailWANInFlight;
// stall-until-restore was rejected because it would couple in-flight
// completion times to the restore tick, making recovery metrics measure
// the scheduler instead of the platform.
func (l *Link) Fail() { l.failed = true }

// Restore brings a failed link back into service.
func (l *Link) Restore() { l.failed = false }

// Failed reports the link failure state.
func (l *Link) Failed() bool { return l.failed }

// Degrade models a brownout: the usable rate is scaled to factor times the
// healthy rate and the latency to 1/factor times the healthy latency
// (congested paths both thin out and slow down). The factor is absolute
// against the healthy state, not cumulative, so repeated calls do not
// compound; factor 1 restores the healthy parameters. In-flight transfers
// finish their remaining demand at the new share, while only transfers
// enqueued after the change observe the new latency (the latency is
// snapshotted into each task at Enqueue). Callers must invoke it from a
// sequential phase and bracket it with Sync/MarkDirty on this agent, which
// the topology-layer helpers do. Panics on factor outside (0, 1].
func (l *Link) Degrade(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("hardware: link degrade factor %v outside (0, 1]", factor))
	}
	l.rate = l.baseRate * factor
	l.q.SetRate(l.rate)
	l.q.SetLatency(l.baseLatency / factor)
}

// Repair restores the healthy rate and latency after a Degrade. Like
// Degrade it needs a sequential phase and Sync/MarkDirty bracketing.
func (l *Link) Repair() {
	l.rate = l.baseRate
	l.q.SetRate(l.baseRate)
	l.q.SetLatency(l.baseLatency)
}

// Degraded reports whether the link currently runs below its healthy rate.
func (l *Link) Degraded() bool { return l.rate != l.baseRate }

// Arrivals returns the total number of transfers ever enqueued on the
// link. The fault suite samples it on backup links to detect when diverted
// traffic starts flowing (time-to-reroute).
func (l *Link) Arrivals() uint64 { return l.q.Arrivals() }

var (
	_ core.QueueAgent = (*NIC)(nil)
	_ core.QueueAgent = (*Switch)(nil)
	_ core.QueueAgent = (*Link)(nil)
)
