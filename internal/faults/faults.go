// Package faults implements phased fault-injection scenarios: a composable
// fault library (WAN blackout and brownout, data-center blackout and
// brownout, storage degraded mode with synthetic rebuild traffic, and
// SYNCHREP master failover) driven by a scenario controller that runs the
// classic chaos phases stabilize -> inject -> recover.
//
// The controller is a core.Source, not an agent: each fault transition is
// a scheduled poll, so the event calendar treats it like any other due
// tick. Fast-forward jumps stop at (never across) the transition tick,
// thinning and bulk-dense stepping are unaffected, and no per-tick cost is
// paid while no transition is due — faults compose with every loop
// optimization for free.
//
// Determinism contract: faults draw no randomness. Transition times come
// from the injection schedule, rebuild traffic is launched on a fixed
// period with round-robin server selection, and every hardware mutation is
// a deterministic function of the fault's parameters. A faulted run with
// seed s therefore differs from the healthy run with seed s only through
// the injected degradation — which is what makes magnitude sweeps over
// DeriveSeed-pinned points meaningful A/B comparisons. No-op injections
// (zero magnitude, zero duration) are elided at attach time: they add no
// source and no probes, so the run is bit-identical to one that never
// declared them.
package faults

import (
	"fmt"
	"math"

	"repro/internal/background"
	"repro/internal/core"
	"repro/internal/topology"
)

// Target bundles the simulation surfaces a fault mutates: the hardware
// topology, the background daemons and the simulation itself (for
// launching synthetic traffic and reading backlog).
type Target struct {
	Sim   *core.Simulation
	Infra *topology.Infrastructure
	// Sync maps master DC name to its replication daemon, for failover
	// faults. May be nil when the scenario runs no daemons.
	Sync map[string]*background.SyncDaemon
}

// Fault is one injectable degradation. Inject and Recover run in the
// sequential source-poll phase at their scheduled ticks; Validate runs at
// attach time against the fully built target, so a misconfigured fault
// fails the compile instead of panicking mid-run. Faults must be
// idempotent-free value types: Clone returns an independent copy so
// concurrent sweep points never share mutable fault state.
type Fault interface {
	// Describe returns a short human-readable summary for reports.
	Describe() string
	// Validate checks the fault's parameters against the built target.
	Validate(tg Target) error
	// NoOp reports whether injecting the fault would change nothing; no-op
	// faults are elided at attach time to preserve bit-identity.
	NoOp() bool
	// Inject applies the degradation.
	Inject(tg Target)
	// Recover undoes it.
	Recover(tg Target)
	// Clone returns an independent copy.
	Clone() Fault
}

// MagnitudeFault is a fault with a sweepable severity in [0, 1]. Sweep
// axes faults.<name>.magnitude resolve through it.
type MagnitudeFault interface {
	Fault
	Magnitude() float64
	SetMagnitude(m float64) error
}

// rebuilder is an optional fault capability: while injected, the
// controller calls RebuildStep every RebuildInterval seconds to generate
// synthetic background traffic (a RAID rebuild reading surviving disks).
type rebuilder interface {
	RebuildInterval() float64
	RebuildStep(tg Target, seq int)
}

// Injection schedules one fault within a scenario: inject at At seconds of
// simulated time, recover Duration seconds later. The window [0, At) is
// the stabilize phase, [At, At+Duration) the inject phase and everything
// after the last recovery the recover phase. A Duration of zero means
// inject and recover coincide — nothing observable can happen, so the
// injection is elided entirely.
type Injection struct {
	// Name identifies the injection in reports and sweep axes
	// (faults.<name>.magnitude / faults.<name>.duration). Required, unique
	// within a scenario.
	Name     string
	Fault    Fault
	At       float64
	Duration float64
}

// ValidateSchedule checks the schedule fields of every injection: a name,
// unique across the schedule, a fault, and a finite, non-negative At and
// Duration. It needs no built target, so the experiment gate runs it at
// assembly and Attach runs it again before Fault.Validate checks each
// fault's own parameters against the target.
func ValidateSchedule(injections []Injection) error {
	seen := make(map[string]bool, len(injections))
	for _, inj := range injections {
		if inj.Name == "" {
			return fmt.Errorf("faults: injection needs a name (sweep axes and reports key on it)")
		}
		if seen[inj.Name] {
			return fmt.Errorf("faults: duplicate injection name %q", inj.Name)
		}
		seen[inj.Name] = true
		if inj.Fault == nil {
			return fmt.Errorf("faults: injection %q has no fault", inj.Name)
		}
		if !(inj.At >= 0 && inj.At < math.Inf(1)) {
			return fmt.Errorf("faults: injection %q at %v: must be finite and not before simulation start", inj.Name, inj.At)
		}
		if !(inj.Duration >= 0 && inj.Duration < math.Inf(1)) {
			return fmt.Errorf("faults: injection %q duration %v: must be finite and non-negative (0 elides the injection)", inj.Name, inj.Duration)
		}
	}
	return nil
}

// NoOp reports whether the injection can be elided: a schedule that opens
// no window, a missing fault, or a fault whose magnitude changes nothing.
// It is the one effectiveness predicate: Attach elides exactly these
// injections, and the fluid tier opens no fallback window for them.
func (inj Injection) NoOp() bool {
	return inj.Duration <= 0 || inj.Fault == nil || inj.Fault.NoOp()
}
