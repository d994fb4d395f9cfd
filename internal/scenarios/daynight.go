package scenarios

import (
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// DayNightConfig parameterizes the day-night client scenario: the
// Chapter 5 validation infrastructure driven around the clock by one open
// Poisson client workload whose population follows a business-day curve
// with a night floor. The night floor is the regime the thinned sampler
// targets — a positive curve that used to veto every fast-forward jump —
// while the business window exercises the dense per-tick path, so one run
// crosses both regimes twice. The run steps at the experiment's default
// 10 ms.
type DayNightConfig struct {
	Seed   uint64
	Engine core.Engine // nil selects the sequential engine
	// Hours is the simulated span; default 24 (one full curve period).
	Hours float64
	// PeakUsers is the business-window population; default 60.
	PeakUsers float64
	// Fluid engages the analytic client-aggregation tier on the CAD
	// workload when Fluid.Above > 0 (see experiment.WithFluid): hour
	// segments whose expected arrivals per tick reach the threshold are
	// carried as a deterministic M/M/c flow instead of discrete sampling.
	Fluid experiment.Fluid
	// LoopFlags selects the time loop (see core.LoopFlags); results are
	// bit-identical on either loop.
	core.LoopFlags
}

// The day-night population and rate: business hours [9, 17) GMT, a night
// floor of 5% of the peak, two operations per user-hour.
const (
	dayNightBizStart, dayNightBizEnd = 9, 17
	dayNightFloorFrac                = 0.05
	dayNightOpsPerUserHour           = 2
)

// defaults fills the scenario-specific zero values; the shared defaults
// (step, snapshot interval) live at the experiment level.
func (c *DayNightConfig) defaults() {
	if c.Hours <= 0 {
		c.Hours = 24
	}
	if c.PeakUsers <= 0 {
		c.PeakUsers = 60
	}
}

// DayNightResult gathers the outputs the equivalence and benchmark
// harnesses compare.
type DayNightResult struct {
	Config DayNightConfig
	Sim    *core.Simulation
	// Result is the uniform experiment harvest the run came from.
	Result       *experiment.Result
	Users        workload.Curve
	CompletedOps uint64
	Responses    *metrics.Responses
	// Jumps/SkippedTicks are the run's fast-forward statistics.
	Jumps, SkippedTicks uint64
}

// RunDayNight executes the day-night client scenario end to end. Like the
// other thesis scenarios it is a thin adapter over the experiment API: one
// declarative workload on the validation infrastructure, run for the
// configured span.
func RunDayNight(cfg DayNightConfig) (*DayNightResult, error) {
	return runDayNight(cfg, 1, 0)
}

// RunDayNightFluid is the web-scale variant: the day-night scenario at a
// default 10 million peak users, with server clock rates scaled by
// PeakUsers/60 so the offered load keeps the 60-user validation run's
// utilization. Clocks scale rather than cores because both the Erlang-C
// recursion and the FCFS admission preallocation are O(cores) — a
// 166 000-fold core count would be slow to even construct, while a faster
// clock leaves every per-tick loop untouched. The fluid tier (default
// threshold: one expected arrival per tick, which even the 5% night floor
// exceeds by ~460x at 10M users) carries the whole day analytically, so the
// run completes within the discrete 60-user benchmark's wall-time envelope
// despite simulating five orders of magnitude more client traffic.
func RunDayNightFluid(cfg DayNightConfig) (*DayNightResult, error) {
	if cfg.PeakUsers <= 0 {
		cfg.PeakUsers = 10e6
	}
	if cfg.Fluid.Above <= 0 {
		cfg.Fluid.Above = 1
	}
	return runDayNight(cfg, cfg.PeakUsers/60, 0)
}

// runDayNight is the shared body: assemble the experiment (see
// dayNightExperiment), run it and harvest the uniform result.
func runDayNight(cfg DayNightConfig, ghzScale, thinBelow float64) (*DayNightResult, error) {
	e, users, err := dayNightExperiment(&cfg, ghzScale, thinBelow)
	if err != nil {
		return nil, err
	}
	run, err := e.Run()
	if err != nil {
		return nil, err
	}
	return &DayNightResult{
		Config:       cfg,
		Sim:          run.Sim,
		Result:       run,
		Users:        users,
		CompletedOps: run.Stats.CompletedOps,
		Responses:    run.Responses,
		Jumps:        run.Stats.Jumps,
		SkippedTicks: run.Stats.SkippedTicks,
	}, nil
}

// dayNightExperiment fills cfg's defaults and assembles the day-night
// experiment on the validation infrastructure — server clocks scaled by
// ghzScale, the CAD workload's thinning threshold set to thinBelow (0 the
// default, negative per-tick draws). It also returns the population curve.
func dayNightExperiment(cfg *DayNightConfig, ghzScale, thinBelow float64) (*experiment.Experiment, workload.Curve, error) {
	cfg.defaults()
	spec := ValidationInfraSpec()
	if ghzScale != 1 {
		for i := range spec.DCs {
			for j := range spec.DCs[i].Tiers {
				spec.DCs[i].Tiers[j].Server.CPU.GHz *= ghzScale
			}
		}
	}
	users := workload.BusinessDay(cfg.PeakUsers, dayNightBizStart, dayNightBizEnd,
		cfg.PeakUsers*dayNightFloorFrac)
	cadFn, err := experiment.OpsByName("CAD", "NA")
	if err != nil {
		return nil, workload.Curve{}, err
	}
	opts := []experiment.Option{
		experiment.WithInfra(spec),
		experiment.WithSeed(cfg.Seed),
		experiment.WithEngine(func() core.Engine { return cfg.Engine }),
		experiment.WithDuration(cfg.Hours * 3600),
		experiment.WithLoopFlags(cfg.LoopFlags),
		experiment.WithAccessMatrix(workload.SingleMaster([]string{"NA"}, "NA")),
		experiment.WithWorkload(experiment.Workload{
			App: "CAD", DC: "NA",
			Users:          users,
			OpsPerUserHour: dayNightOpsPerUserHour,
			OpsFn:          cadFn,
			ThinBelow:      thinBelow,
		}),
	}
	if cfg.Fluid.Above > 0 {
		opts = append(opts, experiment.WithFluid("CAD", "NA", cfg.Fluid))
	}
	e, err := experiment.New("daynight", opts...)
	return e, users, err
}
