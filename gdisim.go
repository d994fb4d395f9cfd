// Package gdisim is a Go reproduction of GDISim, the Global Data
// Infrastructure Simulator of "Large-Scale Simulator for Global Data
// Infrastructure Optimization" (Herrero-López, CLUSTER 2011 / MIT thesis).
//
// GDISim evaluates the performance, availability and reliability of
// global, multi-data-center IT infrastructures. Hardware components are
// modeled as queueing networks (CPUs as p x M/M/q FCFS, links as M/M/1/k
// PS, RAID and SAN as fork-join structures), aggregated into holons
// (server, tier, data center); software applications are modeled as
// message cascades whose messages carry hardware-agnostic cost arrays
// R = (CPU cycles, network bytes, memory bytes, disk bytes). A discrete
// time loop drives the agents with in-flight work (active-set scheduling)
// and fast-forwards the clock across provably quiet stretches, with jump
// sizing and poll scheduling read off an indexed event calendar in
// O(changed agents) per iteration (see DESIGN.md) — all bit-identical to
// the plain tick-by-tick loop. That plain loop is the one Chapter 4
// parallelizes: its per-tick sweep can run on one worker pool at the grain
// of the classic Scatter-Gather mechanism (one work item per agent) or of
// the H-Dispatch pull model (agent sets).
// Sparse client workloads sample thinned inter-arrival gaps instead of
// per-tick Poisson draws, so low-traffic hours fast-forward too — also
// bit-identical across the two loops, and distribution-identical to
// per-tick draws (a workload's negative ThinBelow selects those).
//
// # Quick start
//
// The primary entry point is the declarative experiment surface: one
// Experiment value describes the infrastructure, the workloads, the run
// window, the engine and the seed, and Run compiles and executes it into a
// uniform Result of series, response tables and run statistics:
//
//	e, err := gdisim.NewExperiment("what-if",
//		gdisim.WithInfra(spec),            // data centers, tiers, WAN
//		gdisim.WithWindow(9, 17),          // GMT business-hours window
//		gdisim.WithSeed(1),
//		gdisim.WithAccessMatrix(gdisim.SingleMaster(dcs, "NA")),
//		gdisim.WithWorkload(gdisim.ExperimentWorkload{
//			App: "PDM", DC: "NA",
//			Users:          gdisim.BusinessDay(500, 9, 17, 25),
//			OpsPerUserHour: 8,
//			Ops:            ops, // cascade operations (gdisim.SeqOp, ...)
//		}),
//	)
//	res, err := e.Run()
//	fmt.Println(res.Stats.CompletedOps, res.Series["cpu:NA:app"].Mean(0, 8*3600))
//
// A workload without Ops runs a named operation set instead, its Set (a
// document's "ops"): "VIS", "PDM", "CAD@<dc>" — the CAD mix calibrated at
// data center <dc> — or "CAD", calibrated at the workload's own DC. An
// empty Set names the set after the app, and workloads naming one set
// share its catalog.
//
// On top of a single experiment, NewSweep expands a parameter grid into
// independent simulations fanned out across a worker pool, each point
// seeded by SplitMix64 derivation so results are bit-identical regardless
// of worker count:
//
//	sr, err := gdisim.NewSweep("capacity", base).
//		Vary("dcs.NA.app.cores", 8, 16, 32).
//		Vary("wan.NA-EU.mbps", 45, 155).
//		Run(0) // 0 = one worker per CPU
//	sr.WriteCSV(os.Stdout)
//
// JSON scenario documents (gdisim.LoadScenario) compile to the same
// Experiment type through ExperimentFromDocument — one surface whether the
// scenario comes from Go code or a document; `gdisim -doc file.json
// [-sweep path=v1,v2 ...]` is the CLI for it. examples/consolidation.json
// and examples/multimaster.json are the Chapter 6 and 7 case studies: the
// only definition of the two platforms, at scale 1 over 11-17 h GMT, seed
// 3.
//
// The thesis' evaluations are packaged as ready-made scenarios built on
// the experiment API: RunValidation (Chapter 5), NewConsolidation
// (Chapter 6), NewMultiMaster (Chapter 7) and RunDayNight. The two case
// studies load their documents, set the run's seed, step and window, and
// scale them (CaseConfig). `gdisim
// -scenario validation|consolidation|multimaster` regenerates each
// chapter's tables and figures and checks its fidelity table.
package gdisim

import (
	"io"

	"repro/internal/background"
	"repro/internal/cascade"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/scenarios"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Experiment API: the declarative scenario surface and the sweep runner.
type (
	// Experiment is a complete, runnable scenario description assembled
	// from functional options (see NewExperiment).
	Experiment = experiment.Experiment
	// ExperimentOption mutates an experiment under assembly.
	ExperimentOption = experiment.Option
	// ExperimentWorkload declares one application workload at one DC.
	ExperimentWorkload = experiment.Workload
	// ExperimentDaemons declares the background daemons per master DC.
	ExperimentDaemons = experiment.Daemons
	// ExperimentRun is a compiled experiment ready for time to advance.
	ExperimentRun = experiment.Run
	// ExperimentResult is the uniform harvest of one experiment run.
	ExperimentResult = experiment.Result
	// LoopFlags selects the time loop (core.LoopFlags); SimConfig embeds
	// the same struct.
	LoopFlags = experiment.LoopFlags
	// Sweep expands a parameter grid into concurrent independent runs.
	Sweep = experiment.Sweep
	// SweepResult aggregates a sweep run with per-point rows.
	SweepResult = experiment.SweepResult
	// SweepVariant is one point of a VaryFunc mutator axis.
	SweepVariant = experiment.Variant
	// SweepColumn is one metric column of the sweep CSV export.
	SweepColumn = experiment.Column
	// FluidConfig parameterizes the fluid workload tier for one workload
	// (see WithFluid and DESIGN.md, "Fluid workload tier").
	FluidConfig = experiment.Fluid
	// RunStats is the run-counter snapshot carried by every Result.
	RunStats = core.RunStats
)

// NewExperiment assembles an experiment from options and validates it.
func NewExperiment(name string, opts ...ExperimentOption) (*Experiment, error) {
	return experiment.New(name, opts...)
}

// NewSweep creates a parameter sweep over experiments assembled by base;
// see Sweep.Vary / Sweep.VaryFunc / Sweep.Run.
func NewSweep(name string, base func() (*Experiment, error)) *Sweep {
	return experiment.NewSweep(name, base)
}

// ExperimentFromDocument compiles a JSON scenario document into an
// experiment — the same surface Go-built scenarios use.
func ExperimentFromDocument(d *ScenarioDocument) (*Experiment, error) {
	return experiment.FromDocument(d)
}

// LoadExperiment reads a scenario document from a JSON file and compiles
// it into an experiment.
func LoadExperiment(path string) (*Experiment, error) {
	return experiment.LoadDocument(path)
}

// Experiment assembly options, re-exported from internal/experiment.
var (
	WithInfra        = experiment.WithInfra
	WithStep         = experiment.WithStep
	WithCollectEvery = experiment.WithCollectEvery
	WithSeed         = experiment.WithSeed
	WithEngine       = experiment.WithEngine
	WithWindow       = experiment.WithWindow
	WithDuration     = experiment.WithDuration
	WithLoopFlags    = experiment.WithLoopFlags
	WithAccessMatrix = experiment.WithAccessMatrix
	WithWorkload     = experiment.WithWorkload
	WithDaemons      = experiment.WithDaemons
	WithSetup        = experiment.WithSetup
	WithFault        = experiment.WithFault
	// WithFluid enables the hybrid analytic/discrete aggregation tier for
	// one already-declared workload: above FluidConfig.Above expected
	// arrivals per tick the workload is carried analytically through the
	// M/M/c machinery (with matching capacity reservations on the shared
	// tiers), falling back to discrete sampling near saturation and inside
	// fault windows. See DESIGN.md, "Fluid workload tier".
	WithFluid = experiment.WithFluid
)

// Fault injection: phased chaos scenarios (stabilize -> inject -> recover)
// built from a composable fault library; every fault transition is a
// calendar event, so chaos runs compose with fast-forward, thinning and
// bulk-dense stepping for free. See DESIGN.md, "Fault injection & phased
// scenarios".
type (
	// Fault is one injectable degradation of the fault library.
	Fault = faults.Fault
	// FaultInjection schedules one fault: inject at At, recover after
	// Duration (zero duration elides the injection entirely).
	FaultInjection = faults.Injection
	// WANFault fails (magnitude 1) or degrades (magnitude in (0,1)) a WAN
	// connection between two adjacent DCs.
	WANFault = faults.WAN
	// DCFault blacks out (magnitude 1) or derates (magnitude in (0,1)) a
	// whole data center.
	DCFault = faults.DC
	// StorageFault puts a tier's arrays in degraded mode with synthetic
	// rebuild read traffic.
	StorageFault = faults.Storage
	// FailoverFault repoints a SYNCHREP master at a secondary for the
	// injection window.
	FailoverFault = faults.Failover
	// FaultReport is the recovery analysis harvested into Result.Faults:
	// exact injection/recovery times, peak backlog, time-to-reroute,
	// time-to-drain, and the fault:-prefixed scenario series.
	FaultReport = faults.Report
	// FaultSpec is the JSON form of one scheduled injection in a scenario
	// document's "faults" array.
	FaultSpec = config.FaultSpec
)

// Scenario phases recorded in the fault:phase series of a chaos run.
const (
	PhaseStabilize = faults.PhaseStabilize
	PhaseInject    = faults.PhaseInject
	PhaseRecover   = faults.PhaseRecover
)

// DeriveSeed derives an independent sub-stream seed from a base seed by
// SplitMix64 — the seed-derivation contract behind per-workload RNG
// streams and per-sweep-point seeds.
func DeriveSeed(base, stream uint64) uint64 { return core.DeriveSeed(base, stream) }

// Simulation core.
type (
	// Simulation owns the discrete time loop, agents, sources and metrics.
	Simulation = core.Simulation
	// SimConfig parameterizes a Simulation (step size, seed, engine).
	SimConfig = core.Config
	// Engine parallelizes the reference loop's per-tick sweep over the
	// active agents (LoopFlags.NoFastForward) — the Chapter 4 experiments;
	// the production loop steps agents itself and never calls it (see
	// DESIGN.md, "Active-set sweep scheduling").
	Engine = core.Engine
	// SequentialEngine is the deterministic single-threaded reference.
	SequentialEngine = core.SequentialEngine
	// Source injects work into the simulation. NextPoll reports when the
	// next Poll can have an effect, letting the event-horizon loop skip
	// the quiet ticks between injections (see DESIGN.md).
	Source = core.Source
	// SourceFunc adapts a function to the Source interface.
	SourceFunc = core.SourceFunc
	// OpRun is a runnable operation instance (advanced users; most callers
	// go through cascade Instantiate).
	OpRun = core.OpRun
	// Gauge is an interned handle to a named simulation gauge (see
	// Simulation.GaugeHandle); hot paths use it to skip map lookups.
	Gauge = core.Gauge
	// OpError is the fatal error of a run the platform could not carry:
	// the operation, its client's data center and the simulated second,
	// around the cause (match the cause with errors.As — see NoRouteError).
	OpError = core.OpError
)

// NewSimulation builds a simulation; zero-value config selects a 10 ms
// step, sequential engine and snapshot every second.
func NewSimulation(cfg SimConfig) *Simulation { return core.NewSimulation(cfg) }

// NewScatterGather returns the classic Scatter-Gather engine of §4.3.4
// with the given worker count: H-Dispatch at one agent per work item.
func NewScatterGather(threads int) Engine { return dispatch.NewScatterGather(threads) }

// NewHDispatch returns the H-Dispatch engine of §4.3.5; setSize <= 0
// selects the paper's best agent-set size of 64.
func NewHDispatch(threads, setSize int) Engine { return dispatch.NewHDispatch(threads, setSize) }

// Topology: specifications and built holons.
type (
	// InfraSpec describes the whole infrastructure to build.
	InfraSpec = topology.InfraSpec
	// DCSpec describes one data center.
	DCSpec = topology.DCSpec
	// TierSpec describes a tier of identical servers.
	TierSpec = topology.TierSpec
	// ServerSpec describes one server's hardware.
	ServerSpec = topology.ServerSpec
	// ClientSpec describes a data center's client population hardware.
	ClientSpec = topology.ClientSpec
	// WANSpec describes a WAN connection between two data centers.
	WANSpec = topology.WANSpec
	// Infrastructure is the built root holon.
	Infrastructure = topology.Infrastructure
	// DataCenter is a built data-center holon.
	DataCenter = topology.DataCenter
	// Tier is a built tier holon.
	Tier = topology.Tier
	// Server is a built server holon.
	Server = topology.Server
	// Cost is the R parameter array carried by cascade messages.
	Cost = topology.Cost
	// Endpoint is a resolved message endpoint.
	Endpoint = topology.Endpoint
	// NoRouteError reports two data centers no chain of live WAN links
	// connects — what Experiment.Run returns (inside an OpError) when a
	// fault partitions a client from the data it works on.
	NoRouteError = topology.NoRouteError
)

// Hardware component specifications (§3.4.2).
type (
	// CPUSpec describes a multi-socket multi-core processor.
	CPUSpec = hardware.CPUSpec
	// DiskSpec describes one disk (controller cache + drive).
	DiskSpec = hardware.DiskSpec
	// RAIDSpec describes a redundant array of identical disks.
	RAIDSpec = hardware.RAIDSpec
	// SANSpec describes a storage area network.
	SANSpec = hardware.SANSpec
	// LinkSpec describes a network link (bandwidth, latency, allocation).
	LinkSpec = hardware.LinkSpec
)

// Build materializes an infrastructure specification into simulation
// agents and returns the root holon.
func Build(sim *Simulation, spec InfraSpec) (*Infrastructure, error) {
	return topology.Build(sim, spec)
}

// Software model: message cascades.
type (
	// Op is a reusable operation definition (a message cascade).
	Op = cascade.Op
	// Msg is one message of a cascade.
	Msg = cascade.Msg
	// End is a message endpoint reference (role at a site).
	End = cascade.End
	// Role names a holon type (Client, App, DB, FS, Idx, Daemon).
	Role = cascade.Role
	// Site selects the local or master data center for an endpoint.
	Site = cascade.Site
	// Binding resolves cascade roles to concrete holons for one instance.
	Binding = cascade.Binding
)

// Cascade roles and sites, re-exported for building operations.
const (
	RoleClient = cascade.Client
	RoleApp    = cascade.App
	RoleDB     = cascade.DB
	RoleFS     = cascade.FS
	RoleIdx    = cascade.Idx
	RoleDaemon = cascade.Daemon

	SiteLocal  = cascade.SiteLocal
	SiteMaster = cascade.SiteMaster
)

// SeqOp builds an operation whose messages execute strictly in sequence.
func SeqOp(name string, msgs ...Msg) Op { return cascade.Seq(name, msgs...) }

// NewBinding builds a binding for a client at local manipulating a file
// owned by master.
func NewBinding(inf *Infrastructure, local, master *DataCenter) *Binding {
	return cascade.NewBinding(inf, local, master)
}

// Instantiate turns an operation plus binding into a runnable OpRun.
func Instantiate(op Op, b *Binding) (OpRun, error) { return cascade.Instantiate(op, b) }

// EstimateOp returns the isolated (contention-free) duration of an
// operation under the binding, in seconds.
func EstimateOp(op Op, b *Binding, step float64) (float64, error) {
	return cascade.Estimate(op, b, step)
}

// Workloads.
type (
	// Curve is a 24-hour concurrent-user curve (hourly, GMT).
	Curve = workload.Curve
	// AccessMatrix maps client locations to file-owner probabilities.
	AccessMatrix = workload.AccessMatrix
	// WorkloadSeries is a sequential concatenation of operations (§5.2.2).
	WorkloadSeries = workload.Series
	// SeriesLauncher launches series at fixed intervals (Chapter 5).
	SeriesLauncher = workload.SeriesLauncher
	// AppWorkload drives an application with Poisson arrivals (Chapters 6-7).
	AppWorkload = workload.AppWorkload
)

// BusinessDay builds a diurnal business-hours curve.
func BusinessDay(peak float64, startGMT, endGMT int, nightFloor float64) Curve {
	return workload.BusinessDay(peak, startGMT, endGMT, nightFloor)
}

// SingleMaster returns an access matrix sending every request to master.
func SingleMaster(dcs []string, master string) AccessMatrix {
	return workload.SingleMaster(dcs, master)
}

// Background processes.
type (
	// GrowthModel maps data centers to hourly data-generation curves.
	GrowthModel = background.GrowthModel
	// SyncDaemon runs SYNCHREP cycles (§6.4.3).
	SyncDaemon = background.SyncDaemon
	// IndexDaemon runs INDEXBUILD cycles (§6.4.3).
	IndexDaemon = background.IndexDaemon
)

// Metrics.
type (
	// Series is a time series of samples.
	Series = metrics.Series
	// Table renders aligned text tables.
	Table = metrics.Table
	// Responses tracks operation response times by type and location.
	Responses = metrics.Responses
)

// RMSE computes the root-mean-square error between two series (Eq. 5.5).
func RMSE(reference, predicted *Series) (float64, error) { return metrics.RMSE(reference, predicted) }

// Analytic queueing (capacity planning).
type (
	// MMc summarizes an analytic M/M/c queue.
	MMc = queueing.MMc
)

// ErlangC returns the waiting probability of an M/M/c queue with offered
// load a Erlangs.
func ErlangC(c int, a float64) (float64, error) { return queueing.ErlangC(c, a) }

// RequiredServers returns the minimum server count keeping the mean
// queueing delay below maxWait.
func RequiredServers(lambda, mu, maxWait float64) (int, error) {
	return queueing.RequiredServers(lambda, mu, maxWait)
}

// Scenario documents and result export.
type (
	// ScenarioDocument is a JSON-serializable simulator input (§3.2.1).
	ScenarioDocument = config.Document
	// WorkloadSpec is the JSON form of one application workload.
	WorkloadSpec = config.WorkloadSpec
)

// LoadScenario reads a scenario document from a JSON file, checking its
// JSON shape only; ExperimentFromDocument checks the values.
func LoadScenario(path string) (*ScenarioDocument, error) { return config.Load(path) }

// ExportSeriesCSV writes series as long-format CSV for external plotting.
func ExportSeriesCSV(w io.Writer, series map[string]*Series) error {
	return config.ExportSeriesCSV(w, series)
}

// CollectorSeries gathers every registered series of a collector for
// export.
func CollectorSeries(col *metrics.Collector) map[string]*Series {
	return config.CollectorSeries(col)
}

// Thesis scenarios.
type (
	// ValidationConfig parameterizes a Chapter 5 validation run.
	ValidationConfig = scenarios.ValidationConfig
	// ValidationResult gathers the Chapter 5 outputs.
	ValidationResult = scenarios.ValidationResult
	// CaseConfig parameterizes the Chapter 6/7 case studies.
	CaseConfig = scenarios.CaseConfig
	// CaseStudy is a loaded consolidation or multiple-master run.
	CaseStudy = scenarios.CaseStudy
	// DayNightConfig parameterizes the 24 h day-night client scenario.
	DayNightConfig = scenarios.DayNightConfig
	// DayNightResult gathers the day-night scenario outputs.
	DayNightResult = scenarios.DayNightResult
)

// RunValidation executes one Chapter 5 validation experiment (0-2).
func RunValidation(cfg ValidationConfig) (*ValidationResult, error) {
	return scenarios.RunValidation(cfg)
}

// NewConsolidation loads the Chapter 6 consolidated-platform case study,
// examples/consolidation.json, as cfg sets it up.
func NewConsolidation(cfg CaseConfig) (*CaseStudy, error) {
	return scenarios.NewConsolidation(cfg)
}

// NewMultiMaster loads the Chapter 7 multiple-master case study,
// examples/multimaster.json, as cfg sets it up.
func NewMultiMaster(cfg CaseConfig) (*CaseStudy, error) {
	return scenarios.NewMultiMaster(cfg)
}

// RunDayNight executes the day-night client scenario: the validation
// platform under a 24 h business-day curve with a night floor — the
// regime the event calendar and thinned arrivals accelerate.
func RunDayNight(cfg DayNightConfig) (*DayNightResult, error) {
	return scenarios.RunDayNight(cfg)
}
