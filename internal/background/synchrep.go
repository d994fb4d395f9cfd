package background

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

const mb = 1e6

// SyncDaemon is the R daemon of §6.4.3: every Interval seconds it launches
// a SYNCHREP operation covering the files modified in the elapsed window.
// Multiple SYNCHREP instances may overlap when a cycle outlasts the
// interval, exactly as the thesis specifies. One daemon runs per master
// data center (one total in Chapter 6, six in Chapter 7).
type SyncDaemon struct {
	Inf      *topology.Infrastructure
	Master   string
	APM      workload.AccessMatrix
	Growth   GrowthModel
	Interval float64 // seconds between launches (900 in the case studies)

	// Durations records one sample per completed SYNCHREP (seconds).
	Durations metrics.Series
	// PullMB / PushMB record per-cycle volumes by remote data center.
	PullMB map[string]*metrics.Series
	PushMB map[string]*metrics.Series

	next    float64
	started bool
}

// Poll launches SYNCHREP cycles on schedule. Implements core.Source.
func (d *SyncDaemon) Poll(s *core.Simulation, now float64) {
	if !d.started {
		if d.Interval <= 0 {
			panic("background: SyncDaemon needs a positive interval")
		}
		if err := d.APM.Validate(); err != nil {
			panic(err)
		}
		d.Durations.Name = "SYNCHREP@" + d.Master
		d.PullMB = make(map[string]*metrics.Series)
		d.PushMB = make(map[string]*metrics.Series)
		d.next = d.Interval // first cycle covers [0, Interval)
		d.started = true
	}
	for now >= d.next {
		windowEnd := d.next
		d.launch(s, windowEnd-d.Interval, windowEnd)
		d.next += d.Interval
	}
}

// NextPoll reports the next scheduled SYNCHREP launch; polls before it are
// no-ops. In-flight cycles advance through the flow machinery, not polls.
func (d *SyncDaemon) NextPoll(now float64) float64 {
	if !d.started {
		return now
	}
	return d.next
}

// MaxStalenessMin returns R^max_SR: the longest time a stale file copy can
// survive at a data center — the launch interval plus the longest observed
// cycle (§6.3.3, Fig. 6-14).
func (d *SyncDaemon) MaxStalenessMin() float64 {
	_, longest, ok := d.Durations.Max()
	if !ok {
		return 0
	}
	return (d.Interval + longest) / 60
}

// launch builds and starts one SYNCHREP operation for the window.
func (d *SyncDaemon) launch(s *core.Simulation, t0, t1 float64) {
	master := d.Inf.DC(d.Master)
	daemon := topology.DaemonEndpoint(master)
	masterFS := topology.ServerEndpoint(master.Tier("fs").Pick())

	// Pull phase: collect each remote DC's master-owned modifications.
	var pulls []core.MessagePlan
	for _, src := range d.Inf.DCNames() {
		vol, err := PullVolumeMB(d.Growth, d.APM, d.Master, src, t0, t1)
		if err != nil {
			d.fail(s, err)
			return
		}
		if vol <= 0 {
			continue
		}
		d.seriesFor(d.PullMB, src).Add(t1, vol)
		srcFS := topology.ServerEndpoint(d.Inf.DC(src).Tier("fs").Pick())
		plan, err := concatHops(d.Inf,
			hop{daemon, srcFS, topology.Cost{CPUCycles: 5e7, NetBytes: 20e3}},
			hop{srcFS, masterFS, topology.Cost{CPUCycles: 2e8, NetBytes: vol * mb, DiskBytes: vol * mb, MemBytes: 200 * mb}},
			hop{masterFS, daemon, topology.Cost{CPUCycles: 5e7, NetBytes: 20e3}},
		)
		if err != nil {
			d.fail(s, err)
			return
		}
		pulls = append(pulls, plan)
	}

	// Push phase: scatter every master-owned new file to all other DCs
	// except its creator (§6.3.2).
	var pushes []core.MessagePlan
	for _, dst := range d.Inf.DCNames() {
		vol, err := PushVolumeMB(d.Growth, d.APM, d.Master, dst, t0, t1)
		if err != nil {
			d.fail(s, err)
			return
		}
		if dst == d.Master || vol <= 0 {
			continue
		}
		d.seriesFor(d.PushMB, dst).Add(t1, vol)
		dstFS := topology.ServerEndpoint(d.Inf.DC(dst).Tier("fs").Pick())
		plan, err := concatHops(d.Inf,
			hop{daemon, masterFS, topology.Cost{CPUCycles: 5e7, NetBytes: 20e3}},
			hop{masterFS, dstFS, topology.Cost{CPUCycles: 2e8, NetBytes: vol * mb, DiskBytes: vol * mb, MemBytes: 200 * mb}},
			hop{dstFS, daemon, topology.Cost{CPUCycles: 5e7, NetBytes: 20e3}},
		)
		if err != nil {
			d.fail(s, err)
			return
		}
		pushes = append(pushes, plan)
	}

	// Metadata step: the daemon queries the database for the modified-file
	// lists through the application tier (Fig. 6-8).
	meta, err := d.metadataPlan(master, daemon)
	if err != nil {
		d.fail(s, err)
		return
	}

	steps := [][]core.MessagePlan{{meta}}
	if len(pulls) > 0 {
		steps = append(steps, pulls)
	}
	if len(pushes) > 0 {
		steps = append(steps, pushes)
	}
	s.StartOp(core.OpRun{
		Name:       "SYNCHREP",
		DC:         d.Master,
		NumSteps:   len(steps),
		Expander:   core.ExpandFunc(func(step int) []core.MessagePlan { return steps[step] }),
		OnComplete: func(now, dur float64) { d.Durations.Add(now, dur) },
	})
}

// fail makes a cycle that cannot be built — a data center it must reach is
// cut off, or a volume has no access-matrix row to split by — the
// simulation's fatal error instead of a panic.
func (d *SyncDaemon) fail(s *core.Simulation, err error) {
	s.Fail(&core.OpError{Op: "SYNCHREP", DC: d.Master, At: s.Clock().NowSeconds(), Err: err})
}

func (d *SyncDaemon) metadataPlan(master *topology.DataCenter, daemon topology.Endpoint) (core.MessagePlan, error) {
	app := topology.ServerEndpoint(master.Tier("app").Pick())
	db := topology.ServerEndpoint(master.Tier("db").Pick())
	return concatHops(d.Inf,
		hop{daemon, app, topology.Cost{CPUCycles: 2.5e8, NetBytes: 50e3}},
		hop{app, db, topology.Cost{CPUCycles: 1.25e9, NetBytes: 100e3, DiskBytes: 20 * mb}},
		hop{db, app, topology.Cost{CPUCycles: 2.5e8, NetBytes: 500e3}},
		hop{app, daemon, topology.Cost{CPUCycles: 5e7, NetBytes: 100e3}},
	)
}

func (d *SyncDaemon) seriesFor(m map[string]*metrics.Series, dc string) *metrics.Series {
	s := m[dc]
	if s == nil {
		s = &metrics.Series{Name: dc}
		m[dc] = s
	}
	return s
}

// HourlyPushMB aggregates per-cycle push volumes to a destination into
// per-hour sums — the series of Figs. 6-11 / 7-4 / 7-5.
func (d *SyncDaemon) HourlyPushMB(dst string, hours int) []float64 {
	return hourlySums(d.PushMB[dst], hours)
}

// HourlyPullMB aggregates per-cycle pull volumes from a source per hour.
func (d *SyncDaemon) HourlyPullMB(src string, hours int) []float64 {
	return hourlySums(d.PullMB[src], hours)
}

// DailyPushMB sums all pushes from this master over the run.
func (d *SyncDaemon) DailyPushMB() float64 {
	total := 0.0
	for _, s := range d.PushMB {
		for _, v := range s.V {
			total += v
		}
	}
	return total
}

func hourlySums(s *metrics.Series, hours int) []float64 {
	out := make([]float64, hours)
	if s == nil {
		return out
	}
	for i, t := range s.T {
		h := int(t / 3600)
		if h >= 0 && h < hours {
			out[h] += s.V[i]
		}
	}
	return out
}

// hop is one message of a daemon cascade.
type hop struct {
	from, to topology.Endpoint
	cost     topology.Cost
}

// concatHops chains sequential messages into a single message plan: the
// stage list of hop k+1 follows hop k, which is exactly the semantics of a
// fixed request/transfer/ack sub-sequence inside a parallel branch, and the
// plan holds one memory span per hop processed at a server.
func concatHops(inf *topology.Infrastructure, hops ...hop) (core.MessagePlan, error) {
	var plan core.MessagePlan
	for _, h := range hops {
		if err := inf.AppendHop(&plan, h.from, h.to, h.cost); err != nil {
			return core.MessagePlan{}, fmt.Errorf("background: %w", err)
		}
	}
	return plan, nil
}

var _ core.Source = (*SyncDaemon)(nil)
