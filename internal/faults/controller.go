package faults

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Phase values recorded in the fault:phase series, segmenting every other
// series of a chaos run: 0 while stabilizing (before the first injection),
// 1 while any fault is active, 2 once all faults have recovered.
const (
	PhaseStabilize = 0
	PhaseInject    = 1
	PhaseRecover   = 2
)

// Probe keys the controller registers. They carry the fault: prefix so the
// experiment harvest can lift them out of the ordinary series set (and out
// of the result digest) into the fault report.
const (
	KeyPhase          = "fault:phase"
	KeyBacklog        = "fault:backlog"
	KeyBackupArrivals = "fault:backup_arrivals"
)

// transition is one scheduled fault edge.
type transition struct {
	at     float64
	idx    int // index into Controller.inj / Controller.reports
	inject bool
}

// rebuildState tracks an injected fault that generates synthetic traffic.
type rebuildState struct {
	idx      int
	fault    rebuilder
	next     float64
	interval float64
	seq      int
}

// Controller executes a fault schedule as a simulation source: its
// NextPoll is always the exact time of the next fault transition (or
// rebuild burst), so the fast-forward loop lands on transition ticks
// instead of skipping them, and the controller costs nothing in between.
// Build one with Attach.
type Controller struct {
	tg       Target
	inj      []Injection
	trans    []transition
	next     int
	phase    int
	active   int
	reports  []InjectionReport
	rebuilds []rebuildState
}

// Attach validates the schedule (ValidateSchedule) and each fault against
// the built target, elides no-ops (Injection.NoOp), and — when any
// effective injection remains — registers the controller source and its
// probes. It returns nil when nothing attaches: a fault-free scenario stays
// structurally identical to one that never mentioned faults, which is the
// bit-identity guarantee behind zero-magnitude and zero-duration sweep
// points.
func Attach(tg Target, injections []Injection) (*Controller, error) {
	c, err := AttachSource(tg, injections)
	if c != nil {
		tg.Sim.Collector.Register(c.Probes()...)
	}
	return c, err
}

// AttachSource is Attach without the probes: it registers the controller
// source and leaves the controller's Probes to the caller, which registers
// them in one batch with its own.
func AttachSource(tg Target, injections []Injection) (*Controller, error) {
	if err := ValidateSchedule(injections); err != nil {
		return nil, err
	}
	effective := make([]Injection, 0, len(injections))
	for _, inj := range injections {
		if err := inj.Fault.Validate(tg); err != nil {
			return nil, fmt.Errorf("faults: injection %q: %w", inj.Name, err)
		}
		if inj.NoOp() {
			continue
		}
		effective = append(effective, inj)
	}
	if len(effective) == 0 {
		return nil, nil
	}
	c := &Controller{tg: tg, inj: effective}
	for i, inj := range effective {
		c.trans = append(c.trans,
			transition{at: inj.At, idx: i, inject: true},
			transition{at: inj.At + inj.Duration, idx: i, inject: false},
		)
		c.reports = append(c.reports, InjectionReport{
			Name: inj.Name, Fault: inj.Fault.Describe(),
			InjectedAt: -1, RecoveredAt: -1, StalledOps: -1,
		})
	}
	sort.SliceStable(c.trans, func(a, b int) bool { return c.trans[a].at < c.trans[b].at })
	tg.Sim.AddSource(c)
	return c, nil
}

// Probes returns the scenario-phase and recovery-signal probes, in
// registration order. All three are passive reads — registering them
// perturbs no simulation state.
// They sample the controller through pointer views, so they cost no
// closure.
func (c *Controller) Probes() []metrics.Probe {
	return []metrics.Probe{
		{Key: KeyPhase, Sample: (*phaseSampler)(c)},
		{Key: KeyBacklog, Sample: (*backlogSampler)(c)},
		{Key: KeyBackupArrivals, Sample: (*backupSampler)(c)},
	}
}

// phaseSampler reads the scenario phase.
type phaseSampler Controller

func (c *phaseSampler) Sample(float64) float64 { return float64(c.phase) }

// backlogSampler reads the operations in flight.
type backlogSampler Controller

func (c *backlogSampler) Sample(float64) float64 { return float64(c.tg.Sim.ActiveFlows()) }

// backupSampler reads the arrivals on backup links so far.
type backupSampler Controller

func (c *backupSampler) Sample(float64) float64 { return float64(c.tg.Infra.BackupArrivals()) }

// Poll applies every transition and rebuild burst due at or before now.
// Implements core.Source; it runs in the sequential source-poll phase, so
// fault mutations are safe against the parallel sweep by construction.
func (c *Controller) Poll(s *core.Simulation, now float64) {
	for c.next < len(c.trans) && now >= c.trans[c.next].at {
		tr := c.trans[c.next]
		c.next++
		inj := c.inj[tr.idx]
		if tr.inject {
			c.active++
			c.phase = PhaseInject
			c.reports[tr.idx].InjectedAt = now
			inj.Fault.Inject(c.tg)
			if rb, ok := inj.Fault.(rebuilder); ok {
				if iv := rb.RebuildInterval(); iv > 0 {
					c.rebuilds = append(c.rebuilds, rebuildState{
						idx: tr.idx, fault: rb, next: now + iv, interval: iv,
					})
				}
			}
			continue
		}
		c.active--
		if c.active == 0 {
			c.phase = PhaseRecover
		}
		// Stalled ops: flows still in flight at the instant of recovery —
		// work the fault delayed past its own window, counted before the
		// recovery mutation so the read is exact, not snapshot-resolution.
		c.reports[tr.idx].StalledOps = s.ActiveFlows()
		c.reports[tr.idx].RecoveredAt = now
		inj.Fault.Recover(c.tg)
		for i := range c.rebuilds {
			if c.rebuilds[i].idx == tr.idx {
				c.rebuilds = append(c.rebuilds[:i], c.rebuilds[i+1:]...)
				break
			}
		}
	}
	for i := range c.rebuilds {
		rb := &c.rebuilds[i]
		for now >= rb.next {
			rb.fault.RebuildStep(c.tg, rb.seq)
			rb.seq++
			rb.next += rb.interval
		}
	}
}

// NextPoll returns the exact time of the controller's next action — the
// earliest pending transition or rebuild burst — or +Inf once the schedule
// is exhausted, parking the source for good. Implements core.Source: the
// fast-forward loop turns this into a calendar tick that jumps may land on
// but never cross.
func (c *Controller) NextPoll(now float64) float64 {
	next := math.Inf(1)
	if c.next < len(c.trans) {
		next = c.trans[c.next].at
	}
	for i := range c.rebuilds {
		if c.rebuilds[i].next < next {
			next = c.rebuilds[i].next
		}
	}
	return next
}

var _ core.Source = (*Controller)(nil)
