package faults

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// WAN is a WAN connection fault between two adjacent DCs. Magnitude 1 is a
// blackout: both directions of the primary link fail and routing diverts
// onto backup paths (complete-then-divert — in-flight transfers finish;
// see topology.FailWAN). Magnitude in (0, 1) is a brownout: the link keeps
// carrying traffic at (1-m) times the healthy rate and 1/(1-m) times the
// healthy latency. Magnitude 0 is a no-op and elides the injection.
type WAN struct {
	From, To string
	Mag      float64
}

// Describe implements Fault.
func (f *WAN) Describe() string {
	if f.Mag >= 1 {
		return fmt.Sprintf("WAN blackout %s-%s", f.From, f.To)
	}
	return fmt.Sprintf("WAN brownout %s-%s (%.0f%%)", f.From, f.To, f.Mag*100)
}

// Validate implements Fault.
func (f *WAN) Validate(tg Target) error {
	if err := checkMagnitude(f.Mag); err != nil {
		return fmt.Errorf("wan %s-%s: %w", f.From, f.To, err)
	}
	if tg.Infra.WANLink(f.From, f.To) == nil {
		return fmt.Errorf("faults: no primary WAN link %s-%s (DCs: %v)", f.From, f.To, tg.Infra.DCNames())
	}
	return nil
}

// NoOp implements Fault.
func (f *WAN) NoOp() bool { return f.Mag <= 0 }

// Inject implements Fault.
func (f *WAN) Inject(tg Target) {
	if f.Mag >= 1 {
		tg.Infra.FailWAN(f.From, f.To)
		return
	}
	tg.Infra.DegradeWAN(f.From, f.To, 1-f.Mag)
}

// Recover implements Fault.
func (f *WAN) Recover(tg Target) {
	if f.Mag >= 1 {
		tg.Infra.RestoreWAN(f.From, f.To)
		return
	}
	tg.Infra.RepairWAN(f.From, f.To)
}

// Clone implements Fault.
func (f *WAN) Clone() Fault { c := *f; return &c }

// Magnitude implements MagnitudeFault.
func (f *WAN) Magnitude() float64 { return f.Mag }

// SetMagnitude implements MagnitudeFault.
func (f *WAN) SetMagnitude(m float64) error {
	if err := checkMagnitude(m); err != nil {
		return err
	}
	f.Mag = m
	return nil
}

// DC is a whole-data-center fault. Magnitude 1 is a blackout: every WAN
// link touching the DC fails (the DC vanishes from the platform's point of
// view; local clients keep hitting local tiers). Magnitude in (0, 1) is a
// brownout: every server CPU in every tier of the DC is derated to (1-m)
// times its spec rate — reduced power, thermal throttling. Magnitude 0 is
// a no-op.
type DC struct {
	DC  string
	Mag float64
}

// Describe implements Fault.
func (f *DC) Describe() string {
	if f.Mag >= 1 {
		return fmt.Sprintf("DC blackout %s", f.DC)
	}
	return fmt.Sprintf("DC brownout %s (%.0f%%)", f.DC, f.Mag*100)
}

// Validate implements Fault.
func (f *DC) Validate(tg Target) error {
	if err := checkMagnitude(f.Mag); err != nil {
		return fmt.Errorf("dc %s: %w", f.DC, err)
	}
	if tg.Infra.DCs[f.DC] == nil {
		return fmt.Errorf("faults: unknown DC %q (have %v)", f.DC, tg.Infra.DCNames())
	}
	return nil
}

// NoOp implements Fault.
func (f *DC) NoOp() bool { return f.Mag <= 0 }

// Inject implements Fault.
func (f *DC) Inject(tg Target) {
	if f.Mag >= 1 {
		tg.Infra.IsolateDC(f.DC)
		return
	}
	f.derate(tg, 1-f.Mag)
}

// Recover implements Fault.
func (f *DC) Recover(tg Target) {
	if f.Mag >= 1 {
		tg.Infra.RejoinDC(f.DC)
		return
	}
	f.derate(tg, 1)
}

func (f *DC) derate(tg Target, factor float64) {
	dc := tg.Infra.DC(f.DC)
	for _, tier := range dc.Tiers {
		for _, srv := range tier.Servers {
			srv.CPU.Derate(factor)
		}
	}
}

// Clone implements Fault.
func (f *DC) Clone() Fault { c := *f; return &c }

// Magnitude implements MagnitudeFault.
func (f *DC) Magnitude() float64 { return f.Mag }

// SetMagnitude implements MagnitudeFault.
func (f *DC) SetMagnitude(m float64) error {
	if err := checkMagnitude(m); err != nil {
		return err
	}
	f.Mag = m
	return nil
}

// rebuildInterval is the period of synthetic rebuild traffic: one read
// burst per second spreads the rebuild bandwidth smoothly without adding a
// per-tick source cost (the controller's next poll is the earlier of the
// next burst and the next transition).
const rebuildInterval = 1.0

// Storage is a degraded-mode storage fault on one tier's arrays: every
// drive queue is derated to (1-m) times its spec throughput (parity
// reconstruction steals seeks), and while injected, RebuildMBps of
// synthetic read traffic per second is pushed through the tier's storage
// round-robin across its servers — the rebuild stream competing with
// production I/O. Magnitude must stay below 1 (a dead array is modeled as
// a DC or tier-level outage, not a zero-rate queue); magnitude 0 with no
// rebuild bandwidth is a no-op.
type Storage struct {
	DC, Tier    string
	Mag         float64
	RebuildMBps float64
}

// Describe implements Fault.
func (f *Storage) Describe() string {
	return fmt.Sprintf("storage degraded %s:%s (%.0f%%, rebuild %.0f MB/s)",
		f.DC, f.Tier, f.Mag*100, f.RebuildMBps)
}

// Validate implements Fault.
func (f *Storage) Validate(tg Target) error {
	if err := checkStorageMagnitude(f.Mag); err != nil {
		return fmt.Errorf("faults: %w — model a dead array as a DC fault", err)
	}
	if !(f.RebuildMBps >= 0 && !math.IsInf(f.RebuildMBps, 1)) {
		return fmt.Errorf("faults: rebuild bandwidth %v must be finite and non-negative", f.RebuildMBps)
	}
	dc := tg.Infra.DCs[f.DC]
	if dc == nil {
		return fmt.Errorf("faults: unknown DC %q (have %v)", f.DC, tg.Infra.DCNames())
	}
	if !dc.HasTier(f.Tier) {
		return fmt.Errorf("faults: DC %s has no tier %q", f.DC, f.Tier)
	}
	return nil
}

// NoOp implements Fault.
func (f *Storage) NoOp() bool { return f.Mag <= 0 && f.RebuildMBps <= 0 }

// Inject implements Fault.
func (f *Storage) Inject(tg Target) {
	if f.Mag > 0 {
		f.derate(tg, 1-f.Mag)
	}
}

// Recover implements Fault.
func (f *Storage) Recover(tg Target) {
	if f.Mag > 0 {
		f.derate(tg, 1)
	}
}

func (f *Storage) derate(tg Target, factor float64) {
	tier := tg.Infra.DC(f.DC).Tier(f.Tier)
	for _, srv := range tier.Servers {
		if srv.RAID != nil {
			srv.RAID.Derate(factor)
		}
	}
	if tier.SAN != nil {
		tier.SAN.Derate(factor)
	}
}

// Clone implements Fault.
func (f *Storage) Clone() Fault { c := *f; return &c }

// Magnitude implements MagnitudeFault.
func (f *Storage) Magnitude() float64 { return f.Mag }

// SetMagnitude implements MagnitudeFault.
func (f *Storage) SetMagnitude(m float64) error {
	if err := checkStorageMagnitude(m); err != nil {
		return err
	}
	f.Mag = m
	return nil
}

// RebuildInterval implements the controller's rebuilder capability.
func (f *Storage) RebuildInterval() float64 {
	if f.RebuildMBps <= 0 {
		return 0
	}
	return rebuildInterval
}

// RebuildStep launches one rebuild read burst: RebuildMBps x interval
// bytes through one server's storage pipeline, round-robin by seq. The
// burst targets the drive arrays directly (rebuild reads never hit the
// server memory cache), so it draws no randomness.
func (f *Storage) RebuildStep(tg Target, seq int) {
	if op, ok := f.rebuildOp(tg, seq); ok {
		tg.Sim.StartOp(op)
	}
}

// rebuildOp builds burst seq's operation: one step of one message, stored
// in a core.OnePlan, so expanding it allocates nothing. ok is false when the
// server has no storage, which validated topologies rule out.
func (f *Storage) rebuildOp(tg Target, seq int) (op core.OpRun, ok bool) {
	tier := tg.Infra.DC(f.DC).Tier(f.Tier)
	srv := tier.Servers[seq%len(tier.Servers)]
	stages := srv.AppendStorage(nil, f.RebuildMBps*1e6*rebuildInterval)
	if len(stages) == 0 {
		return core.OpRun{}, false
	}
	return core.OpRun{
		Name:     "REBUILD",
		DC:       f.DC,
		NumSteps: 1,
		Expander: &core.OnePlan{{Stages: stages}},
		Silent:   true,
	}, true
}

// Failover repoints the SYNCHREP replication daemon of master From at
// secondary master To for the duration of the injection — the §7 multi-
// master topology's answer to losing a master site. Replication cycles
// launched while injected read the access matrix from the secondary's
// perspective and target its hardware; cycles already in flight complete
// against the old master (the same complete-then-divert semantics links
// have). From == To is a no-op.
type Failover struct {
	From, To string
}

// Describe implements Fault.
func (f *Failover) Describe() string {
	return fmt.Sprintf("SYNCHREP failover %s -> %s", f.From, f.To)
}

// Validate implements Fault.
func (f *Failover) Validate(tg Target) error {
	if tg.Sync[f.From] == nil {
		return fmt.Errorf("faults: no SYNCHREP daemon for master %q — failover needs WithDaemons", f.From)
	}
	if tg.Infra.DCs[f.To] == nil {
		return fmt.Errorf("faults: unknown failover target DC %q (have %v)", f.To, tg.Infra.DCNames())
	}
	return nil
}

// NoOp implements Fault.
func (f *Failover) NoOp() bool { return f.From == f.To }

// Inject implements Fault.
func (f *Failover) Inject(tg Target) { tg.Sync[f.From].Master = f.To }

// Recover implements Fault.
func (f *Failover) Recover(tg Target) { tg.Sync[f.From].Master = f.From }

// Clone implements Fault.
func (f *Failover) Clone() Fault { c := *f; return &c }

// checkMagnitude validates a severity in [0, 1]. The checks state what is
// usable, so NaN fails them.
func checkMagnitude(m float64) error {
	if !(m >= 0 && m <= 1) {
		return fmt.Errorf("magnitude %v outside [0, 1]", m)
	}
	return nil
}

// checkStorageMagnitude validates a storage severity in [0, 1): a dead
// array is not a zero-rate queue.
func checkStorageMagnitude(m float64) error {
	if !(m >= 0 && m < 1) {
		return fmt.Errorf("storage magnitude %v outside [0, 1)", m)
	}
	return nil
}

var (
	_ MagnitudeFault = (*WAN)(nil)
	_ MagnitudeFault = (*DC)(nil)
	_ MagnitudeFault = (*Storage)(nil)
	_ Fault          = (*Failover)(nil)
	_ rebuilder      = (*Storage)(nil)
)
