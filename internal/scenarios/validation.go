// Package scenarios assembles the thesis' three evaluations into runnable
// setups: the Chapter 5 validation of the downscaled Fortune 500
// infrastructure, the Chapter 6 data-serving-platform consolidation and
// the Chapter 7 multiple-master background-process optimization.
package scenarios

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ValidationInfraSpec reconstructs the downscaled validation infrastructure
// of Fig. 5-1 (tier sizes re-derived from Table 5.2, see DESIGN.md):
// Tapp^(2,16,32), Tdb^(1,32,32), Tfs^(1,16,16) and Tidx^(1,16,16) at 2.5 GHz,
// db and fs backed by san^(1,20,15K), 10 GbE LAN, 1 GbE clients.
func ValidationInfraSpec() topology.InfraSpec {
	raid := &hardware.RAIDSpec{
		Disks: 4, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
		CtrlGbps: 4, HitRate: 0,
	}
	san := &hardware.SANSpec{
		Disks: 20, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
		FCSwitchGbps: 8, CtrlGbps: 8, FCALGbps: 8, HitRate: 0,
	}
	srv := func(cores int, memGB float64, withRAID bool) topology.ServerSpec {
		s := topology.ServerSpec{
			CPU:     hardware.CPUSpec{Sockets: 1, Cores: cores, GHz: apps.ServerGHz},
			MemGB:   memGB,
			NICGbps: 10,
		}
		if withRAID {
			s.RAID = raid
		}
		return s
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	sanLink := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5}
	return topology.InfraSpec{
		DCs: []topology.DCSpec{{
			Name: "NA", SwitchGbps: 20,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []topology.TierSpec{
				{Name: "app", Servers: 2, Server: srv(16, 32, true), LocalLink: local},
				{Name: "db", Servers: 1, Server: srv(32, 32, false), LocalLink: local, SAN: san, SANLink: &sanLink},
				{Name: "fs", Servers: 1, Server: srv(16, 16, false), LocalLink: local, SAN: san, SANLink: &sanLink},
				{Name: "idx", Servers: 1, Server: srv(16, 16, true), LocalLink: local},
			},
		}},
		Clients: map[string]topology.ClientSpec{
			"NA": {Slots: 60, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
		},
	}
}

// ValidationConfig parameterizes one validation run.
type ValidationConfig struct {
	Experiment int     // 0-2, selecting the launch frequencies of §5.2.4
	Step       float64 // time-loop granularity; default 5 ms
	Seed       uint64
	Engine     core.Engine // nil selects the sequential engine
	// LaunchFor is how long series keep being launched; RunFor the total
	// simulated time. Defaults follow the thesis: ~34 and ~38 minutes.
	LaunchFor float64
	RunFor    float64
	// Steady-state window for Table 5.2 statistics; defaults [5, 34] min,
	// each default capped so the window fits the run. A window that is
	// inverted or reaches past RunFor is an error; one that holds no
	// snapshot reads NaN.
	SteadyStart, SteadyEnd float64
	// LoopFlags selects the time loop (see core.LoopFlags); results are
	// bit-identical on either loop.
	core.LoopFlags
}

func (c *ValidationConfig) defaults() error {
	if c.Experiment < 0 || c.Experiment > 2 {
		return fmt.Errorf("scenarios: experiment index %d out of range", c.Experiment)
	}
	if c.Step <= 0 {
		c.Step = 0.005
	}
	if c.LaunchFor <= 0 {
		c.LaunchFor = 34 * 60
	}
	if c.RunFor <= 0 {
		c.RunFor = 38 * 60
	}
	if c.SteadyEnd <= 0 {
		c.SteadyEnd = min(c.LaunchFor, c.RunFor)
	}
	if c.SteadyStart <= 0 {
		c.SteadyStart = min(5*60, c.SteadyEnd)
	}
	if !(c.SteadyStart <= c.SteadyEnd && c.SteadyEnd <= c.RunFor) {
		return fmt.Errorf("scenarios: steady window [%v, %v) s does not fit a %v s run", c.SteadyStart, c.SteadyEnd, c.RunFor)
	}
	return nil
}

// ValidationResult gathers everything the Chapter 5 figures and tables
// report for one experiment.
type ValidationResult struct {
	Experiment int
	Config     ValidationConfig
	// Sim is the finished (and shut down) simulation, for metric
	// inspection — the golden-trace harness reads its collector.
	Sim *core.Simulation
	// Result is the uniform experiment harvest the run came from.
	Result *experiment.Result

	// Clients is the simulated concurrent-client series (Fig. 5-6).
	Clients *metrics.Series
	// CPU holds the simulated utilization series per tier (Figs. 5-7..10),
	// as fractions.
	CPU map[string]*metrics.Series
	// ReferenceCPU / ReferenceClients are the synthesized physical series
	// regenerated from Table 5.2 and Fig. 5-6 (see DESIGN.md).
	ReferenceCPU     map[string]*metrics.Series
	ReferenceClients *metrics.Series

	// SteadyMean / SteadyStd per tier, in percent (Table 5.2).
	SteadyMean map[string]float64
	SteadyStd  map[string]float64
	// RMSECPU per tier and RMSEClients, in percent (Table 5.3).
	RMSECPU     map[string]float64
	RMSEClients float64
	// RespRMSEPct is the root-mean-square relative response-time error
	// versus Table 5.1 across all operations and series, in percent.
	RespRMSEPct float64

	// CompletedOps is the total number of finished operations — part of
	// the engine determinism contract checked by the equivalence tests.
	CompletedOps uint64

	Responses *metrics.Responses
}

// RunValidation executes one validation experiment end to end. The legacy
// config struct is a thin adapter: it assembles an experiment.Experiment
// (the primary scenario surface) and harvests the Chapter 5 statistics
// from its uniform Result.
func RunValidation(cfg ValidationConfig) (*ValidationResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	// series is filled by the setup hook; the response-RMSE harvest below
	// needs the calibrated operation names.
	var series map[refdata.SeriesType]workload.Series
	e, err := experiment.New("validation",
		experiment.WithInfra(ValidationInfraSpec()),
		experiment.WithStep(cfg.Step),
		experiment.WithCollectEvery(30), // 30 s snapshot windows (§4.3.1 averages minute-scale windows)
		experiment.WithSeed(cfg.Seed+uint64(cfg.Experiment)),
		experiment.WithEngine(func() core.Engine { return cfg.Engine }),
		experiment.WithDuration(cfg.RunFor),
		experiment.WithLoopFlags(cfg.LoopFlags),
		experiment.WithSetup(func(r *experiment.Run) error {
			r.Sim.Collector.Register(r.Sim.GaugeProbe("clients"))
			na := r.Inf.DC("NA")
			var err error
			series, err = apps.CalibratedCADSeries(r.Inf, na, na, cfg.Step)
			if err != nil {
				return err
			}
			exp := refdata.ValidationExperiments[cfg.Experiment]
			for i, st := range refdata.SeriesTypes {
				r.Sim.AddSource(&workload.SeriesLauncher{
					Series:   series[st],
					Interval: exp.Interval[st],
					// Stagger the three launchers so the series types do not
					// all fire at t=0 and at common multiples.
					FirstAt:    float64(i) * exp.Interval[st] / 3,
					Until:      cfg.LaunchFor,
					GaugeKey:   "clients",
					NewBinding: func() *cascade.Binding { return cascade.NewBinding(r.Inf, na, na) },
				})
			}
			return nil
		}),
	)
	if err != nil {
		return nil, err
	}
	run, err := e.Run()
	if err != nil {
		return nil, err
	}
	sim := run.Sim

	res := &ValidationResult{
		Experiment:   cfg.Experiment,
		Config:       cfg,
		Sim:          sim,
		Result:       run,
		Clients:      sim.Collector.MustSeries("clients"),
		CPU:          map[string]*metrics.Series{},
		SteadyMean:   map[string]float64{},
		SteadyStd:    map[string]float64{},
		RMSECPU:      map[string]float64{},
		CompletedOps: run.Stats.CompletedOps,
		Responses:    run.Responses,
	}
	for _, tier := range refdata.ValidationTiers {
		res.CPU[tier] = sim.Collector.MustSeries("cpu:NA:" + tier)
		res.SteadyMean[tier] = res.steady(res.CPU[tier], metrics.Mean) * 100
		res.SteadyStd[tier] = res.steady(res.CPU[tier], metrics.Std) * 100
	}
	res.synthesizeReferences()
	if err := res.computeRMSE(); err != nil {
		return nil, err
	}
	res.computeResponseRMSE(series)
	return res, nil
}

// steady applies stat to the samples of s inside the steady window, or
// returns NaN when the window holds none: a statistic of no snapshots is
// no measurement.
func (r *ValidationResult) steady(s *metrics.Series, stat func([]float64) float64) float64 {
	w := s.Window(r.Config.SteadyStart, r.Config.SteadyEnd)
	if len(w) == 0 {
		return math.NaN()
	}
	return stat(w)
}

// steadyClients is the mean number of concurrent clients over the steady
// window (Fig. 5-6), NaN when the window holds no snapshot.
func (r *ValidationResult) steadyClients() float64 { return r.steady(r.Clients, metrics.Mean) }

// synthesizeReferences regenerates the "physical infrastructure" series
// from the published Table 5.2 statistics: ramp to the steady mean, a
// deterministic wobble whose standard deviation matches the published
// sigma, and a final drain — the trapezoid shape of Figs. 5-6..5-10.
func (r *ValidationResult) synthesizeReferences() {
	cfg := r.Config
	r.ReferenceCPU = map[string]*metrics.Series{}
	for _, tier := range refdata.ValidationTiers {
		stat := refdata.Table52Physical[cfg.Experiment][tier]
		r.ReferenceCPU[tier] = synthSeries(stat.Mean/100, stat.Std/100, cfg, tier)
	}
	clients := refdata.SteadyStateClients[cfg.Experiment]
	r.ReferenceClients = synthSeries(clients, clients*0.05, cfg, "clients")
}

func synthSeries(mean, sigma float64, cfg ValidationConfig, tag string) *metrics.Series {
	s := &metrics.Series{Name: "physical:" + tag}
	// Phase shift derived from the tag keeps tiers decorrelated.
	phase := 0.0
	for _, c := range tag {
		phase += float64(c)
	}
	ramp := cfg.SteadyStart
	for t := 30.0; t <= cfg.RunFor; t += 30 {
		var v float64
		switch {
		case t < ramp:
			v = mean * t / ramp
		case t > cfg.SteadyEnd:
			tail := (cfg.RunFor - t) / (cfg.RunFor - cfg.SteadyEnd)
			v = mean * math.Max(tail, 0)
		default:
			v = mean +
				1.2*sigma*math.Sin(2*math.Pi*t/313+phase) +
				0.6*sigma*math.Sin(2*math.Pi*t/97+1.7*phase)
		}
		if v < 0 {
			v = 0
		}
		s.Add(t, v)
	}
	return s
}

func (r *ValidationResult) computeRMSE() error {
	for _, tier := range refdata.ValidationTiers {
		e, err := metrics.RMSE(r.ReferenceCPU[tier], r.CPU[tier])
		if err != nil {
			return err
		}
		r.RMSECPU[tier] = e * 100
	}
	e, err := metrics.RMSE(r.ReferenceClients, r.Clients)
	if err != nil {
		return err
	}
	steady := refdata.SteadyStateClients[r.Experiment]
	r.RMSEClients = e / steady * 100
	return nil
}

// computeResponseRMSE compares measured mean response times against the
// Table 5.1 targets, as a relative RMSE in percent.
func (r *ValidationResult) computeResponseRMSE(series map[refdata.SeriesType]workload.Series) {
	var sq float64
	var n int
	for _, st := range refdata.SeriesTypes {
		for i, op := range series[st].Ops {
			target := refdata.Table51Durations[st][refdata.CADOperations[i]]
			mean, ok := r.Responses.MeanAll(op.Name, "NA")
			if !ok {
				continue
			}
			rel := (mean - target) / target
			sq += rel * rel
			n++
		}
	}
	if n > 0 {
		r.RespRMSEPct = math.Sqrt(sq/float64(n)) * 100
	}
}
