package hardware

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/queueing"
)

// fcfsPort is the body NIC and Switch share: one single-server FCFS queue
// whose demands are bytes, served at the card or switch speed.
type fcfsPort struct {
	core.AgentBase
	q    queueing.FCFS
	rate float64
}

// init sets the queue up in place at gbps and names the agent; the caller
// registers the agent that embeds the port. kind names the device in the
// panic on a speed that is not a positive finite number.
func (p *fcfsPort) init(sim *core.Simulation, name, kind string, gbps float64) {
	if !(gbps > 0 && finite(gbps)) {
		panic(fmt.Sprintf("hardware: invalid %s speed %v Gbps", kind, gbps))
	}
	p.rate = gbps * 1e9 / 8 // bytes per second
	p.q.Init(1, p.rate)
	p.InitAgent(sim.NextAgentID(), name)
}

// Rate returns the service rate in bytes/second.
func (p *fcfsPort) Rate() float64 { return p.rate }

// Enqueue adds a transfer task (Demand in bytes) and reports the bound on
// its first event (FCFS.Admit; core.QueueAgent).
func (p *fcfsPort) Enqueue(t *queueing.Task) float64 { return p.q.Admit(t) }

// Step advances the queue.
func (p *fcfsPort) Step(dt float64) { p.q.Step(dt, p.BufferDone) }

// StepN advances the queue through n quiet ticks in bulk.
func (p *fcfsPort) StepN(n int, dt float64) { p.q.BulkStep(n, dt) }

// Idle reports whether the queue has no work.
func (p *fcfsPort) Idle() bool { return p.q.Idle() }

// Horizon returns the time until the next completion.
func (p *fcfsPort) Horizon() float64 { return p.q.Horizon() }

// TakeBusy returns busy seconds since the last call.
func (p *fcfsPort) TakeBusy() float64 { return p.q.TakeBusy() }

// IsolatedCost returns the contention-free service time of demand bytes.
func (p *fcfsPort) IsolatedCost(demand, _ float64) float64 { return demand / p.Rate() }

// NIC models a network interface card as an M/M/1 FCFS queue (Fig. 3-6
// left). Demands are bytes; the rate derives from the card speed.
type NIC struct{ fcfsPort }

// Init sets up the zero NIC n in place, with speed in Gbps, and registers
// it. A platform keeps its NICs in slabs made once (the servers of a tier,
// the client slots of a data center). n must not move or be copied
// afterwards.
func (n *NIC) Init(sim *core.Simulation, name string, gbps float64) {
	n.init(sim, name, "NIC", gbps)
	sim.AddAgent(n)
}

// Switch models a network switch as an M/M/1 FCFS queue (Fig. 3-6 center),
// typically an order of magnitude faster than the NICs it serves.
type Switch struct{ fcfsPort }

// Init sets up the zero switch s in place, with speed in Gbps, and
// registers it. A platform keeps its switches in one slab (one per data
// center). s must not move or be copied afterwards.
func (s *Switch) Init(sim *core.Simulation, name string, gbps float64) {
	s.init(sim, name, "switch", gbps)
	sim.AddAgent(s)
}

// Link models a network link as an M/M/1/k processor-sharing queue with a
// constant latency (Fig. 3-6 right). Bandwidth is divided uniformly among
// the tasks being served; k bounds the simultaneous connections.
type Link struct {
	core.AgentBase
	q        queueing.PS
	rate     float64
	capShare float64 // fraction of raw bandwidth allocated to this platform
	failed   bool

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

// Validate states what a usable spec is as one conjunction, so NaN and ±Inf
// are rejected. A non-positive MaxConn or Allocated selects the default.
func (s LinkSpec) Validate() error {
	if !(s.Gbps > 0 && s.LatencyMS >= 0 && s.Allocated <= 1 && finite(s.Gbps, s.LatencyMS, s.Allocated)) {
		return fmt.Errorf("hardware: invalid LinkSpec %+v", s)
	}
	return nil
}

// NewLink creates and registers a link.
func NewLink(sim *core.Simulation, name string, spec LinkSpec) *Link {
	l := new(Link)
	l.Init(sim, name, spec)
	return l
}

// Init sets up the zero link l in place and registers it: what NewLink
// does, for a link that lives in a slab of links made once (the servers'
// local links of a tier). It allocates nothing. l must not move or be
// copied afterwards.
func (l *Link) Init(sim *core.Simulation, name string, spec LinkSpec) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.MaxConn <= 0 {
		spec.MaxConn = 4096
	}
	share := spec.Allocated
	if share <= 0 {
		share = 1
	}
	rate := spec.Gbps * 1e9 / 8 * share // usable bytes/second
	l.rate, l.capShare, l.baseRate, l.baseLatency = rate, share, rate, spec.LatencyMS/1000
	l.q.Init(rate, spec.MaxConn, spec.LatencyMS/1000)
	l.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(l)
}

// Rate returns the usable (allocated) bandwidth in bytes/second.
func (l *Link) Rate() float64 { return l.rate }

// Latency returns the link latency in seconds.
func (l *Link) Latency() float64 { return l.q.Latency() }

// Enqueue adds a transfer (Demand in bytes) and reports the bound on its
// first event (PS.Admit; core.QueueAgent). A failed link still accepts
// transfers: failure is a routing-plane event (see Fail), and a message
// whose route was pinned before the failure may reach the link stages
// later — those committed transfers drain normally rather than crashing
// or stalling the flow.
func (l *Link) Enqueue(t *queueing.Task) float64 { return l.q.Admit(t) }

// Step advances the queue.
func (l *Link) Step(dt float64) { l.q.Step(dt, l.BufferDone) }

// StepN advances the queue through n quiet ticks in bulk: no transfer
// completes and no latency expires in them (core.BulkStepper).
func (l *Link) StepN(n int, dt float64) { l.q.BulkStep(n, dt) }

// Idle reports whether the link carries no traffic.
func (l *Link) Idle() bool { return l.q.Idle() }

// Horizon returns the time until the link's next internal event (a latency
// expiry changing the bandwidth share, or a transfer completion).
func (l *Link) Horizon() float64 { return l.q.Horizon() }

// TakeBusy returns bytes transferred since the last call. Utilization of
// the allocated capacity over a window is bytes / (Rate() x window).
func (l *Link) TakeBusy() float64 { return l.q.TakeBusy() }

// IsolatedCost returns the contention-free time of a demand-byte transfer:
// the latency plus the demand at the current rate.
func (l *Link) IsolatedCost(demand, _ float64) float64 { return l.Latency() + demand/l.Rate() }

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
// snapshotted into each task at Enqueue). It must run in a sequential
// phase; it replays the ticks the loop deferred (Sync) before the change
// and rekeys the agent's calendar entry (MarkDirty) after it. Panics on
// factor outside (0, 1].
func (l *Link) Degrade(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("hardware: link degrade factor %v outside (0, 1]", factor))
	}
	l.setRate(l.baseRate*factor, l.baseLatency/factor)
}

// Repair restores the healthy rate and latency after a Degrade, with the
// same Sync/MarkDirty contract.
func (l *Link) Repair() { l.setRate(l.baseRate, l.baseLatency) }

// setRate applies a rate and latency between Sync and MarkDirty.
func (l *Link) setRate(rate, latency float64) {
	l.Sync()
	l.rate = rate
	l.q.SetRate(rate)
	l.q.SetLatency(latency)
	l.MarkDirty()
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
