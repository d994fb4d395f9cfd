package background

import (
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

// DefaultIndexCyclesPerByte converts indexed bytes into CPU cycles at the
// index server. At 2.5 GHz it yields an indexing throughput of about
// 0.51 MB/s per core, calibrated so the consolidated platform's peak
// INDEXBUILD response approaches the thesis' ~63 minutes (Fig. 6-14): the
// index builder runs barely above the peak global data-generation rate, so
// backlog accumulates through the afternoon and drains after the peak —
// the "cumulative effect" of §6.5.3.
const DefaultIndexCyclesPerByte = 4900

// IndexDaemon is the I daemon of §6.4.3: it relaunches INDEXBUILD a fixed
// gap after the previous run completes, so exactly one instance runs at a
// time; files accumulate while a build is in progress.
type IndexDaemon struct {
	Inf           *topology.Infrastructure
	Master        string
	APM           workload.AccessMatrix
	Growth        GrowthModel
	Gap           float64 // seconds between completion and next launch (300)
	CyclesPerByte float64 // 0 selects DefaultIndexCyclesPerByte
	// Handle is the source handle AddSource returned for this daemon.
	// When set, the daemon parks its poll schedule at +Inf while a build
	// runs and re-arms it from the completion callback via RearmSource —
	// the calendar loop then never consults a dormant daemon. When zero
	// (the daemon was registered without keeping the handle) it falls back
	// to per-tick no-op polls while a build runs, which is correct but
	// vetoes fast-forward jumps for the build's duration.
	Handle core.SourceHandle

	// Durations records one sample per completed INDEXBUILD (seconds).
	Durations metrics.Series
	// BacklogMB records the volume each build processed.
	BacklogMB metrics.Series

	started     bool
	running     bool
	nextLaunch  float64
	lastIndexed float64
}

// Poll launches INDEXBUILD when due. Implements core.Source.
func (d *IndexDaemon) Poll(s *core.Simulation, now float64) {
	if !d.started {
		if d.Gap <= 0 {
			panic("background: IndexDaemon needs a positive gap")
		}
		if err := d.APM.Validate(); err != nil {
			panic(err)
		}
		if d.CyclesPerByte <= 0 {
			d.CyclesPerByte = DefaultIndexCyclesPerByte
		}
		d.Durations.Name = "INDEXBUILD@" + d.Master
		d.BacklogMB.Name = "backlog@" + d.Master
		d.nextLaunch = d.Gap
		d.started = true
	}
	if d.running || now < d.nextLaunch {
		return
	}
	d.launch(s, now)
}

// NextPoll reports the next scheduled INDEXBUILD launch. While a build is
// running a wired daemon (Handle set) is dormant (+Inf): its completion
// callback sets the relaunch time and notifies the simulation through
// RearmSource, so the calendar loop never consults it in between. An
// unwired daemon keeps per-tick polling while running — its polls are
// no-ops, preserving correctness at the cost of vetoed jumps.
func (d *IndexDaemon) NextPoll(now float64) float64 {
	switch {
	case !d.started:
		return now
	case d.running:
		if d.Handle == 0 {
			return now
		}
		return math.Inf(1)
	default:
		return d.nextLaunch
	}
}

// Running reports whether a build is in flight.
func (d *IndexDaemon) Running() bool { return d.running }

// MaxUnsearchableMin returns R^max_IB: the longest interval during which a
// new file can remain unsearchable — the longest observed build plus the
// relaunch gap (§6.3.3, Fig. 6-14).
func (d *IndexDaemon) MaxUnsearchableMin() float64 {
	_, longest, ok := d.Durations.Max()
	if !ok {
		return 0
	}
	return (longest + d.Gap) / 60
}

func (d *IndexDaemon) launch(s *core.Simulation, now float64) {
	backlog := OwnedVolumeMB(d.Growth, d.APM, d.Master, d.lastIndexed, now)
	d.lastIndexed = now
	d.BacklogMB.Add(now, backlog)

	master := d.Inf.DC(d.Master)
	daemon := topology.DaemonEndpoint(master)
	app := topology.ServerEndpoint(master.Tier("app").Pick())
	db := topology.ServerEndpoint(master.Tier("db").Pick())
	idx := topology.ServerEndpoint(master.Tier("idx").Pick())

	// Fig. 6-9: the daemon collects the flagged-file list via app and db,
	// then the index server analyzes each file and its relationships.
	plan, err := concatHops(d.Inf,
		hop{daemon, app, topology.Cost{CPUCycles: 2.5e8, NetBytes: 50e3}},
		hop{app, db, topology.Cost{CPUCycles: 1e9, NetBytes: 100e3, DiskBytes: 10 * mb}},
		hop{db, app, topology.Cost{CPUCycles: 2.5e8, NetBytes: 300e3}},
		hop{app, idx, topology.Cost{
			CPUCycles: backlog * mb * d.CyclesPerByte,
			NetBytes:  500e3,
			MemBytes:  500 * mb,
			DiskBytes: backlog * mb,
		}},
		hop{idx, daemon, topology.Cost{CPUCycles: 5e7, NetBytes: 50e3}},
	)
	if err != nil {
		s.Fail(&core.OpError{Op: "INDEXBUILD", DC: d.Master, At: now, Err: err})
		return
	}

	d.running = true
	s.StartOp(d.op(s, plan))
}

// op wraps one build's message plan into its operation: one step of one
// message, stored in a core.OnePlan, so expanding it allocates nothing.
func (d *IndexDaemon) op(s *core.Simulation, plan core.MessagePlan) core.OpRun {
	return core.OpRun{
		Name:     "INDEXBUILD",
		DC:       d.Master,
		NumSteps: 1,
		Expander: &core.OnePlan{plan},
		OnComplete: func(done, dur float64) {
			d.running = false
			d.nextLaunch = done + d.Gap
			d.Durations.Add(done, dur)
			s.RearmSource(d.Handle) // wake the parked poll schedule
		},
	}
}

var _ core.Source = (*IndexDaemon)(nil)
