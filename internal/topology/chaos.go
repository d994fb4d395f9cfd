package topology

import "repro/internal/hardware"

// This file holds the fault-injection surface of the topology layer: the
// WAN/DC-level mutations the internal/faults library drives. All of them
// must be called from a sequential simulation phase (the fault controller
// is a core.Source, so its polls qualify). Mutations that change queue
// service parameters go through the hardware rate methods (Link.Degrade,
// Link.Repair, CPU.Reserve), which replay the agent's deferred ticks first
// and drop its now-stale calendar key after.
//
// Failure semantics are complete-then-divert (see hardware.Link.Fail):
// transfers already routed onto a failed link finish as if healthy, while
// every message expanded after the failure takes a surviving route.
// FailWAN and IsolateDC therefore only change which links the router will
// consider — they never touch queue contents.

// DegradeWAN scales both directions of the primary WAN connection between
// two adjacent DCs to factor times the healthy rate (and 1/factor times
// the healthy latency) — a brownout rather than a blackout. Routing is
// unaffected: a degraded link still carries traffic, just slower, so no
// route invalidation is needed. Panics via hardware.Link.Degrade on a
// factor outside (0, 1]; unknown connections are a no-op, matching
// FailWAN.
func (inf *Infrastructure) DegradeWAN(a, b string, factor float64) {
	inf.bothWays(a, b, func(l *hardware.Link) { l.Degrade(factor) })
}

// RepairWAN restores the healthy rate and latency of both directions of a
// degraded WAN connection.
func (inf *Infrastructure) RepairWAN(a, b string) {
	inf.bothWays(a, b, (*hardware.Link).Repair)
}

// ReserveCPU withholds the given capacity fraction on every server CPU of
// the tier for analytically aggregated (fluid) traffic (CPU.Reserve). The
// fraction is absolute (successive calls replace); zero releases the
// reservation.
// Must be called from a sequential phase — the fluid crossover controller
// is a global core.Source, so its polls qualify.
func (t *Tier) ReserveCPU(frac float64) {
	for _, s := range t.Servers {
		s.CPU.Reserve(frac)
	}
}

// IsolateDC fails every WAN link — primary and backup, both directions —
// touching the named DC: a full data-center blackout as seen from the rest
// of the platform. Local traffic inside the DC (clients on its own tiers)
// continues; only inter-DC routes through or into the DC vanish. Compiled
// routes are invalidated so subsequent expansions reroute or fail with a
// *NoRouteError.
func (inf *Infrastructure) IsolateDC(name string) {
	inf.eachDCLink(name, func(l *hardware.Link) { l.Fail() })
	inf.rerouted()
}

// RejoinDC restores every WAN link touching the named DC and invalidates
// cached routes, undoing IsolateDC.
func (inf *Infrastructure) RejoinDC(name string) {
	inf.eachDCLink(name, func(l *hardware.Link) { l.Restore() })
	inf.rerouted()
}

// eachDCLink applies fn to every directed WAN link (primary and backup)
// with the named DC as an endpoint.
func (inf *Infrastructure) eachDCLink(name string, fn func(*hardware.Link)) {
	inf.eachWAN(func(from, to *DataCenter, l *hardware.Link) {
		if from.Name == name || to.Name == name {
			fn(l)
		}
	})
}

// BackupArrivals returns the cumulative number of transfers ever enqueued
// across all backup links. Backup links are idle in a healthy platform
// (routing prefers primaries), so the first increase after a fault marks
// the instant diverted traffic starts flowing — the fault suite samples
// this as its time-to-reroute signal.
func (inf *Infrastructure) BackupArrivals() uint64 {
	var n uint64
	for _, p := range inf.wan {
		if p.backup != nil {
			n += p.backup.Arrivals()
		}
	}
	return n
}
