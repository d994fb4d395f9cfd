package scenarios

import (
	"bytes"
	"fmt"
	"math"

	"repro/examples"
	"repro/internal/background"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// CaseConfig parameterizes the Chapter 6 and 7 case-study runs.
type CaseConfig struct {
	Step   float64 // 0 means 10 ms
	Seed   uint64
	Engine core.Engine
	// StartHour/EndHour bound the simulated window of the day in GMT;
	// defaults cover the full day [0, 24).
	StartHour, EndHour int
	// Scale multiplies client populations, data growth, core counts and
	// WAN bandwidth together, preserving utilizations while shrinking the
	// run for tests and benchmarks. 0 means 1; a negative, NaN or infinite
	// scale is an error. Two rounding floors make a small platform larger
	// than its share: every server keeps at least one core and every
	// client pool at least 8 slots (scaleCase); they are one suspect for
	// quarter-scale runs reading higher tier peaks than scale 1.
	Scale float64
	// DisableClients drops the interactive workloads (background-only
	// studies); DisableBackground drops the SR/IB daemons.
	DisableClients    bool
	DisableBackground bool
	// LoopFlags selects the time loop (see core.LoopFlags); results are
	// bit-identical on either loop.
	core.LoopFlags
}

// CaseStudy is a loaded consolidation or multiple-master run: the compiled
// case-study document with the accessors the CLI reports and tests read.
type CaseStudy struct {
	Name string
	Cfg  CaseConfig
	Sim  *core.Simulation
	Inf  *topology.Infrastructure
	// Masters, Sync, Idx and Growth (window-shifted) are the daemons'
	// masters, daemons and growth model; empty without background.
	Masters []string
	Sync    map[string]*background.SyncDaemon
	Idx     map[string]*background.IndexDaemon
	Growth  background.GrowthModel
	// Result is the uniform experiment harvest, filled by Run.
	Result *experiment.Result

	run *experiment.Run
}

// NewConsolidation loads the Chapter 6 case study, examples/consolidation.json:
// the consolidated Data Serving Platform of Fig. 6-2, where NA is the sole
// master running the SYNCHREP and INDEXBUILD daemons, the other data
// centers serve files to their local clients, and AS2 is a served site
// without clients, reached through AS1 (Fig. 6-4). Each region works a
// 9-hour GMT business day; the client peaks reproduce the populations of
// Figs. 6-5..6-7, and the growth plateaus the daily volumes of the Fig.
// 6-10 reconstruction behind the Fig. 6-11 transfers.
func NewConsolidation(cfg CaseConfig) (*CaseStudy, error) {
	return loadCaseStudy(examples.Consolidation, cfg)
}

// NewMultiMaster loads the Chapter 7 case study, examples/multimaster.json:
// the same data centers, each client-facing one a master owning the file
// subsets of Table 7.2 (normalized in sorted owner order) with its own
// app/db/idx tiers and daemons (Fig. 7-3), and NA downsized (§7.3.1).
func NewMultiMaster(cfg CaseConfig) (*CaseStudy, error) {
	return loadCaseStudy(examples.MultiMaster, cfg)
}

// loadCaseStudy compiles a case-study document as cfg sets it up
// (decodeCase). The engine and loop flags apply last.
func loadCaseStudy(raw []byte, cfg CaseConfig) (*CaseStudy, error) {
	d, err := decodeCase(raw, &cfg)
	if err != nil {
		return nil, err
	}
	var masters []string
	if d.Daemons != nil {
		masters = d.Daemons.Masters
	}
	eng := cfg.Engine
	e, err := experiment.FromDocument(d,
		experiment.WithEngine(func() core.Engine { return eng }),
		experiment.WithLoopFlags(cfg.LoopFlags))
	if err != nil {
		return nil, err
	}
	run, err := e.Compile()
	if err != nil {
		return nil, err
	}
	return &CaseStudy{
		Name: d.Name, Cfg: cfg, Sim: run.Sim, Inf: run.Inf,
		Masters: masters,
		Sync:    run.Sync,
		Idx:     run.Idx,
		Growth:  run.Growth,
		run:     run,
	}, nil
}

// decodeCase decodes a case-study document and sets it to cfg, whose
// zero values it fills in: the seed as given, the step (10 ms), the
// window (end hour 24) and the scale (1), which it applies. It drops the
// workloads without clients and the daemons without background.
func decodeCase(raw []byte, cfg *CaseConfig) (*config.Document, error) {
	if !(cfg.Scale >= 0) || math.IsInf(cfg.Scale, 1) {
		return nil, fmt.Errorf("scenarios: scale %v: want a positive finite platform scale", cfg.Scale)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.Step == 0 {
		cfg.Step = 0.01
	}
	if cfg.EndHour == 0 {
		cfg.EndHour = 24
	}
	d, err := config.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	d.Seed, d.Step = cfg.Seed, cfg.Step
	d.Window = &config.WindowSpec{StartHour: cfg.StartHour, EndHour: cfg.EndHour}
	if cfg.DisableClients {
		d.Workloads = nil
	}
	if cfg.DisableBackground {
		d.Daemons = nil
	}
	scaleCase(d, cfg.Scale)
	return d, nil
}

// scaleCase scales a case-study document by k: core counts and client
// slots to round(n·k), at least 1 core and 8 slots; WAN bandwidth, and
// every users and growth curve, times k.
func scaleCase(d *config.Document, k float64) {
	spec := &d.Infrastructure
	for i := range spec.DCs {
		for j := range spec.DCs[i].Tiers {
			cpu := &spec.DCs[i].Tiers[j].Server.CPU
			cpu.Cores = max(1, int(math.Round(float64(cpu.Cores)*k)))
		}
	}
	for dc, c := range spec.Clients {
		c.Slots = max(8, int(math.Round(float64(c.Slots)*k)))
		spec.Clients[dc] = c
	}
	for i := range spec.WAN {
		spec.WAN[i].Link.Gbps *= k
	}
	for i := range d.Workloads {
		d.Workloads[i].Users = d.Workloads[i].Users.Scale(k)
	}
	if d.Daemons != nil {
		for dc, c := range d.Daemons.GrowthMBh {
			d.Daemons.GrowthMBh[dc] = c.Scale(k)
		}
	}
}

// Run advances the simulation through the configured window of the day
// and harvests the uniform experiment Result into cs.Result.
func (cs *CaseStudy) Run() {
	res, err := cs.run.Execute()
	if err != nil {
		// Execute only fails on double execution — a caller bug.
		panic(err)
	}
	cs.Result = res
}

// simWindow translates a GMT hour range into simulation seconds.
func (cs *CaseStudy) simWindow(gmtFrom, gmtTo float64) (float64, float64) {
	return (gmtFrom - float64(cs.Cfg.StartHour)) * 3600,
		(gmtTo - float64(cs.Cfg.StartHour)) * 3600
}

// LinkUtilPct returns the mean utilization (percent of allocated capacity)
// of a directed WAN link over a GMT hour window — the Table 6.1 / 7.3
// measurement — or NaN unless the run covers the whole window: a mean over
// part of it, or over no samples at all, is not that measurement.
func (cs *CaseStudy) LinkUtilPct(from, to string, gmtFrom, gmtTo float64) float64 {
	if gmtFrom < float64(cs.Cfg.StartHour) || gmtTo > float64(cs.Cfg.EndHour) {
		return math.NaN()
	}
	t0, t1 := cs.simWindow(gmtFrom, gmtTo)
	s := cs.Sim.Collector.MustSeries(fmt.Sprintf("link:%s->%s", from, to))
	return s.Mean(t0, t1) * 100
}

// PeakCPUPct returns the peak 1-minute CPU utilization of a tier in
// percent, plus the GMT hour at which it occurred.
func (cs *CaseStudy) PeakCPUPct(dc, tier string) (pct, gmtHour float64) {
	s := cs.Sim.Collector.MustSeries(fmt.Sprintf("cpu:%s:%s", dc, tier))
	t, v, ok := s.Max()
	if !ok {
		return 0, 0
	}
	return v * 100, t/3600 + float64(cs.Cfg.StartHour)
}

// CPUSeries exposes a tier utilization series for figure rendering.
func (cs *CaseStudy) CPUSeries(dc, tier string) *metrics.Series {
	return cs.Sim.Collector.MustSeries(fmt.Sprintf("cpu:%s:%s", dc, tier))
}
