package scenarios

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/apps"
	"repro/internal/background"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/topology"
	"repro/internal/workload"
)

// CaseConfig parameterizes the Chapter 6 and 7 case-study runs.
type CaseConfig struct {
	Step   float64 // default 10 ms
	Seed   uint64
	Engine core.Engine
	// StartHour/EndHour bound the simulated window of the day in GMT;
	// defaults cover the full day [0, 24).
	StartHour, EndHour int
	// Scale multiplies client populations, data growth, core counts and
	// WAN bandwidth together, preserving utilizations while shrinking the
	// run for tests and benchmarks. Default 1.
	Scale float64
	// DisableClients drops the interactive workloads (background-only
	// studies); DisableBackground drops the SR/IB daemons.
	DisableClients    bool
	DisableBackground bool
	// LoopFlags selects the time loop (see core.LoopFlags); results are
	// bit-identical on either loop.
	core.LoopFlags
}

// defaults fills the scenario-specific zero values. The shared defaults
// (step, snapshot interval) and the window validation live at the
// experiment level now — the config structs are thin adapters.
func (c *CaseConfig) defaults() error {
	if c.Step <= 0 {
		c.Step = 0.01
	}
	if c.EndHour == 0 {
		c.EndHour = 24
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return nil
}

// scaleCores scales a core count, keeping at least one core.
func (c CaseConfig) scaleCores(n int) int {
	s := int(math.Round(float64(n) * c.Scale))
	if s < 1 {
		return 1
	}
	return s
}

// dcTraits captures the per-data-center knobs of the case studies.
type dcTraits struct {
	// Business window in GMT hours and client population peaks.
	BizStart, BizEnd int
	CADPeak, VISPeak float64
	PDMPeak          float64
	// GrowthPeakMBh is the data-generation rate at the plateau.
	GrowthPeakMBh float64
	// Master tiers present (app/db/idx); fs always present.
	Master bool
	// Tier core sizing (per server) and server counts.
	AppServers, AppCores int
	DBServers, DBCores   int
	IdxServers, IdxCores int
	FSServers, FSCores   int
	ClientSlots          int
}

// CaseStudy is a built consolidation or multiple-master run. It is a thin
// adapter over the experiment API: buildCaseStudy assembles an
// experiment.Experiment from the traits and compiles it; the struct keeps
// the familiar accessors for the CLI reports and tests.
type CaseStudy struct {
	Name    string
	Cfg     CaseConfig
	Sim     *core.Simulation
	Inf     *topology.Infrastructure
	Masters []string
	Sync    map[string]*background.SyncDaemon
	Idx     map[string]*background.IndexDaemon
	Growth  background.GrowthModel
	APM     workload.AccessMatrix
	// Result is the uniform experiment harvest, filled by Run.
	Result *experiment.Result

	traits map[string]dcTraits
	run    *experiment.Run
}

// caseStudy is what tells the two case studies apart: the per-DC traits,
// the access matrix, and the daemon masters with their index headroom.
type caseStudy struct {
	name     string
	traits   map[string]dcTraits
	apm      workload.AccessMatrix
	masters  []string
	headroom float64
}

// caseApps are the interactive workloads of every client DC: the app, the
// operation set it launches (every DC launches the one CAD mix calibrated at
// the NA master, set "CAD@NA"; VIS and PDM are static), its population peak
// and its rate in operations per user-hour.
var caseApps = []struct {
	app, set string
	peak     func(dcTraits) float64
	rate     float64
}{
	{"CAD", "CAD@NA", func(tr dcTraits) float64 { return tr.CADPeak }, 3.2},
	{"VIS", "VIS", func(tr dcTraits) float64 { return tr.VISPeak }, 4.8},
	{"PDM", "PDM", func(tr dcTraits) float64 { return tr.PDMPeak }, 8.0},
}

// day is the DC's business-day curve (GMT) at the scaled plateau, with a
// night floor of 5% of it: the shape of every population and growth curve
// of the case studies.
func (tr dcTraits) day(peak, scale float64) workload.Curve {
	return workload.BusinessDay(peak*scale, tr.BizStart, tr.BizEnd, peak*scale*0.05)
}

// buildCaseStudy assembles the experiment shared by both case studies —
// infrastructure from the traits, one CAD/VIS/PDM workload per client DC,
// one SYNCHREP + INDEXBUILD daemon pair per master — and compiles it.
func buildCaseStudy(s caseStudy, cfg CaseConfig) (*CaseStudy, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	spec, err := caseInfraSpec(cfg, s.traits)
	if err != nil {
		return nil, err
	}
	eng := cfg.Engine
	opts := []experiment.Option{
		experiment.WithInfra(spec),
		experiment.WithStep(cfg.Step),
		experiment.WithCollectEvery(60), // 1-minute snapshots
		experiment.WithSeed(cfg.Seed),
		experiment.WithEngine(func() core.Engine { return eng }),
		experiment.WithWindow(cfg.StartHour, cfg.EndHour),
		experiment.WithLoopFlags(cfg.LoopFlags),
		experiment.WithAccessMatrix(s.apm),
	}

	// Growth curves are declared in GMT; the experiment shifts them (and
	// the workload curves) into the run window at compile time.
	growth := background.GrowthModel{}
	for dc, tr := range s.traits {
		if tr.GrowthPeakMBh > 0 {
			growth[dc] = tr.day(tr.GrowthPeakMBh, cfg.Scale)
		}
	}

	if !cfg.DisableClients {
		opts = append(opts, caseWorkloads(cfg, spec, s.traits)...)
	}
	if !cfg.DisableBackground {
		opts = append(opts, experiment.WithDaemons(experiment.Daemons{
			Masters:       s.masters,
			Growth:        growth,
			IndexHeadroom: s.headroom,
		}))
	}

	e, err := experiment.New(s.name, opts...)
	if err != nil {
		return nil, err
	}
	run, err := e.Compile()
	if err != nil {
		return nil, err
	}
	cs := &CaseStudy{
		Name: s.name, Cfg: cfg, Sim: run.Sim, Inf: run.Inf,
		Masters: s.masters,
		Sync:    run.Sync,
		Idx:     run.Idx,
		Growth:  run.Growth,
		APM:     s.apm,
		traits:  s.traits,
		run:     run,
	}
	if cs.Growth == nil {
		// Background disabled: keep the shifted model available for callers
		// inspecting the growth curves.
		cs.Growth = background.GrowthModel{}
		for dc, c := range growth {
			cs.Growth[dc] = c.Shift(cfg.StartHour)
		}
	}
	return cs, nil
}

// caseWorkloads declares the caseApps workloads of every client DC, in
// sorted DC order, on the DC's business-day curves.
func caseWorkloads(cfg CaseConfig, spec topology.InfraSpec, traits map[string]dcTraits) []experiment.Option {
	dcs := make([]string, 0, len(spec.DCs))
	for _, dc := range spec.DCs {
		dcs = append(dcs, dc.Name)
	}
	sort.Strings(dcs)

	var opts []experiment.Option
	for _, dc := range dcs {
		tr := traits[dc]
		if tr.ClientSlots == 0 {
			continue
		}
		for _, a := range caseApps {
			if peak := a.peak(tr); peak > 0 {
				opts = append(opts, experiment.WithWorkload(experiment.Workload{
					App: a.app, DC: dc, Set: a.set,
					Users:          tr.day(peak, cfg.Scale),
					OpsPerUserHour: a.rate,
				}))
			}
		}
	}
	return opts
}

// caseInfraSpec materializes the per-DC traits into a topology spec with
// the WAN of Fig. 6-4 (155/45 Mbps links, 20% allocated to this platform).
func caseInfraSpec(cfg CaseConfig, traits map[string]dcTraits) (topology.InfraSpec, error) {
	raid := &hardware.RAIDSpec{
		Disks: 8, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
		CtrlGbps: 8, HitRate: 0.05,
	}
	san := &hardware.SANSpec{
		Disks: 24, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
		FCSwitchGbps: 16, CtrlGbps: 16, FCALGbps: 16, HitRate: 0.05,
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	sanLink := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5}
	srv := func(cores int, memGB float64, withRAID bool) topology.ServerSpec {
		s := topology.ServerSpec{
			CPU: hardware.CPUSpec{Sockets: 1, Cores: cfg.scaleCores(cores),
				GHz: apps.ServerGHz},
			MemGB:        memGB,
			CacheHitRate: 0.1,
			NICGbps:      10,
		}
		if withRAID {
			s.RAID = raid
		}
		return s
	}
	spec := topology.InfraSpec{Clients: map[string]topology.ClientSpec{}}
	for _, dc := range refdata.ConsolidatedDCs {
		tr, ok := traits[dc]
		if !ok {
			return topology.InfraSpec{}, fmt.Errorf("scenarios: no traits for DC %s", dc)
		}
		d := topology.DCSpec{
			Name: dc, SwitchGbps: 40,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []topology.TierSpec{{
				Name: "fs", Servers: tr.FSServers, Server: srv(tr.FSCores, 32, false),
				LocalLink: local, SAN: san, SANLink: &sanLink,
			}},
		}
		if tr.Master {
			d.Tiers = append(d.Tiers,
				topology.TierSpec{Name: "app", Servers: tr.AppServers,
					Server: srv(tr.AppCores, 64, true), LocalLink: local},
				topology.TierSpec{Name: "db", Servers: tr.DBServers,
					Server: srv(tr.DBCores, 64, false), LocalLink: local, SAN: san, SANLink: &sanLink},
				topology.TierSpec{Name: "idx", Servers: tr.IdxServers,
					Server: srv(tr.IdxCores, 64, true), LocalLink: local},
			)
		}
		spec.DCs = append(spec.DCs, d)
		if tr.ClientSlots > 0 {
			slots := int(math.Round(float64(tr.ClientSlots) * cfg.Scale))
			if slots < 8 {
				slots = 8
			}
			spec.Clients[dc] = topology.ClientSpec{
				Slots: slots, NICGbps: 1, GHz: 2.5, DiskMBs: 120,
			}
		}
	}
	wan := func(a, b string, mbps, latencyMS float64, backup bool) topology.WANSpec {
		return topology.WANSpec{From: a, To: b, Backup: backup, Link: hardware.LinkSpec{
			Gbps: mbps / 1000 * cfg.Scale, LatencyMS: latencyMS, Allocated: 0.2,
		}}
	}
	spec.WAN = []topology.WANSpec{
		wan("NA", "EU", 155, 45, false),
		wan("NA", "SA", 45, 60, false),
		wan("NA", "AS1", 155, 90, false),
		wan("AS1", "AS2", 45, 30, false),
		wan("AS1", "AUS", 45, 60, false),
		wan("AS1", "AFR", 45, 80, false),
		wan("EU", "AFR", 45, 80, true),  // backup (Fig. 6-4)
		wan("EU", "AS1", 155, 70, true), // backup
	}
	return spec, nil
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
