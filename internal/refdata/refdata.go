// Package refdata encodes the numbers published in the thesis — the
// external reference the reproduction is compared against. Chapter 5's
// "physical infrastructure" measurements are proprietary Fortune 500 data;
// the published tables are the only record of them, so they serve as the
// reference series (see DESIGN.md, substitutions).
package refdata

// SpeedupRow is one row of Tables 4.1 / 4.2: thread count and measured
// speedup over the single-threaded run.
type SpeedupRow struct {
	Threads int
	Speedup float64
}

// Table41ScatterGather: the classic Scatter-Gather mechanism shows no
// multicore speedup — per-message overhead swamps the tiny per-agent work.
var Table41ScatterGather = []SpeedupRow{
	{1, 1.00}, {2, 1.08}, {4, 0.95}, {8, 0.96}, {16, 0.98},
}

// Table42HDispatch: the H-Dispatch mechanism with Agent Set = 64.
var Table42HDispatch = []SpeedupRow{
	{1, 1.00}, {2, 1.71}, {4, 3.20}, {8, 5.17}, {16, 8.06},
}

// SeriesType labels the three validation series (§5.2.2).
type SeriesType string

// The three series types used in the validation experiments.
const (
	Light   SeriesType = "Light"
	Average SeriesType = "Average"
	Heavy   SeriesType = "Heavy"
)

// SeriesTypes lists the series in canonical order.
var SeriesTypes = []SeriesType{Light, Average, Heavy}

// CADOperations lists the eight client-initiated CAD operations (§5.2.2)
// in series order.
var CADOperations = []string{
	"LOGIN", "TEXT-SEARCH", "FILTER", "EXPLORE",
	"SPATIAL-SEARCH", "SELECT", "OPEN", "SAVE",
}

// Table51Durations: duration in seconds of each operation by series type
// (Table 5.1).
var Table51Durations = map[SeriesType]map[string]float64{
	Light: {
		"LOGIN": 1.94, "TEXT-SEARCH": 4.9, "FILTER": 2.89, "EXPLORE": 6.6,
		"SPATIAL-SEARCH": 12.18, "SELECT": 5.7, "OPEN": 30.67, "SAVE": 36.8,
	},
	Average: {
		"LOGIN": 2.2, "TEXT-SEARCH": 5.11, "FILTER": 2.6, "EXPLORE": 6.43,
		"SPATIAL-SEARCH": 12.15, "SELECT": 6.2, "OPEN": 64.68, "SAVE": 78.21,
	},
	Heavy: {
		"LOGIN": 2.35, "TEXT-SEARCH": 4.99, "FILTER": 3, "EXPLORE": 5.92,
		"SPATIAL-SEARCH": 12.38, "SELECT": 5.34, "OPEN": 96.48, "SAVE": 113.01,
	},
}

// SeriesTotal returns the published total duration of one series.
func SeriesTotal(s SeriesType) float64 {
	total := 0.0
	for _, d := range Table51Durations[s] {
		total += d
	}
	return total
}

// Experiment describes one validation experiment: the launch interval in
// seconds for each series type (§5.2.4).
type Experiment struct {
	Name     string
	Interval map[SeriesType]float64
}

// ValidationExperiments are the three experiments of §5.2.4.
var ValidationExperiments = []Experiment{
	{Name: "Experiment-1 (15-36-60)", Interval: map[SeriesType]float64{Light: 15, Average: 36, Heavy: 60}},
	{Name: "Experiment-2 (12-29-48)", Interval: map[SeriesType]float64{Light: 12, Average: 29, Heavy: 48}},
	{Name: "Experiment-3 (10-24-40)", Interval: map[SeriesType]float64{Light: 10, Average: 24, Heavy: 40}},
}

// Tiers of the validation infrastructure in report order.
var ValidationTiers = []string{"app", "db", "fs", "idx"}

// UtilStat is a steady-state mean and standard deviation (percent).
type UtilStat struct{ Mean, Std float64 }

// Table52Physical: steady-state CPU utilization (percent) measured on the
// physical infrastructure, by experiment index (0-2) and tier (Table 5.2).
var Table52Physical = [3]map[string]UtilStat{
	{"app": {55.84, 4.27}, "db": {39.04, 4.54}, "fs": {40.60, 10.87}, "idx": {19.04, 4.34}},
	{"app": {71.60, 5.64}, "db": {49.20, 4.61}, "fs": {49.87, 10.66}, "idx": {29.20, 4.61}},
	{"app": {81.81, 4.79}, "db": {57.20, 6.30}, "fs": {56.68, 12.06}, "idx": {36.99, 6.43}},
}

// Table52Simulated: the same statistics as predicted by GDISim in the
// thesis, for comparison with this reproduction's output.
var Table52Simulated = [3]map[string]UtilStat{
	{"app": {58.59, 5.71}, "db": {43.07, 5.76}, "fs": {42.93, 11.26}, "idx": {19.91, 5.06}},
	{"app": {72.80, 6.68}, "db": {54.98, 5.48}, "fs": {48.63, 10.98}, "idx": {28.87, 5.22}},
	{"app": {79.80, 7.18}, "db": {62.83, 7.82}, "fs": {52.55, 14.70}, "idx": {33.03, 7.92}},
}

// Table53RMSE: root-mean-square error (percent) between the physical and
// simulated infrastructures reported by the thesis, by experiment: CPU
// utilization keyed by tier (as ValidationTiers), then the concurrent
// clients and the response times.
var Table53RMSE = [3]map[string]float64{
	{"app": 9.07, "db": 11.41, "fs": 7.51, "idx": 6.12, "clients": 5.98, "resp": 5.01},
	{"app": 9.94, "db": 12.56, "fs": 7.05, "idx": 5.40, "clients": 5.12, "resp": 6.92},
	{"app": 10.11, "db": 11.29, "fs": 7.42, "idx": 5.83, "clients": 6.52, "resp": 6.62},
}

// SteadyStateClients: approximate steady-state concurrent client counts
// read from Fig. 5-6 for experiments 1-3.
var SteadyStateClients = [3]float64{22, 28, 35}

// Chapter 6 — consolidated platform.

// ConsolidatedDCs lists the six data centers of the consolidated platform
// (Fig. 6-2); DNA is the master.
var ConsolidatedDCs = []string{"NA", "EU", "AS1", "AS2", "SA", "AFR", "AUS"}

// Table61LinkUtil: average utilization (percent of the allocated 20%
// capacity) during the 12:00-16:00 GMT peak, per WAN link (Table 6.1).
var Table61LinkUtil = map[string]float64{
	"NA->SA":   48,
	"NA->EU":   43,
	"NA->AS1":  59,
	"EU->AFR":  0, // backup
	"EU->AS1":  0, // backup
	"AS1->AFR": 53,
	"AS1->AS2": 47,
	"AS1->AUS": 54,
}

// Table62Row is one row of Table 6.2: the latency penalty of a CAD
// operation launched from DAUS versus DNA.
type Table62Row struct {
	Op         string
	RNA        float64 // response time at DNA (s)
	RAUS       float64 // response time at DAUS (s)
	RoundTrips int     // S: NA<->AUS round trips in the cascade
	DeltaPct   float64 // (RAUS-RNA)/RNA x 100
}

// Table62Latency: response-time variation for CAD operations caused by
// WAN latency at DAUS (Table 6.2).
var Table62Latency = []Table62Row{
	{"LOGIN", 2.2, 3.62, 4, 64.54},
	{"TEXT-SEARCH", 5.11, 6.51, 2, 27.39},
	{"FILTER", 2.6, 4.00, 2, 53.84},
	{"EXPLORE", 6.43, 15.53, 13, 141.52},
	{"SPATIAL-SEARCH", 12.15, 21.95, 14, 80.65},
	{"SELECT", 6.2, 11.1, 7, 79.03},
	{"OPEN", 64.68, 65.38, 1, 1.08},
	{"SAVE", 78.21, 78.91, 1, 0.89},
}

// Consolidated-platform headline results (Chapter 6).
const (
	// Fig. 6-12: Tapp peak utilization in DNA at 15:00 GMT (fraction).
	ConsolidatedAppPeak = 0.73
	// Fig. 6-12: Tdb, Tidx, Tfs peaks in DNA (fractions).
	ConsolidatedDBPeak  = 0.32
	ConsolidatedIdxPeak = 0.30
	ConsolidatedFSPeak  = 0.31
	// Fig. 6-13: Tfs utilization peak in DAUS (fraction).
	ConsolidatedAUSFSPeak = 0.035
	// Fig. 6-14: background-process effectiveness (minutes).
	ConsolidatedMaxStaleMin    = 31.0 // R^max_SR
	ConsolidatedMaxUnsearchMin = 63.0 // R^max_IB
	// §6.4.3: scheduling parameters.
	SynchRepIntervalMin = 15.0 // SYNCHREP launched every 15 min
	IndexBuildGapMin    = 5.0  // INDEXBUILD relaunched 5 min after completion
	AverageFileSizeMB   = 50.0 // §6.4.3 data-growth conversion
	// Fig. 6-11: peak data volume transferred per push phase (MB).
	ConsolidatedPeakPushMB = 14250.0
	// Peak concurrent clients (Figs. 6-5..6-7).
	CADPeakClients = 2000.0
	VISPeakClients = 2500.0
	PDMPeakClients = 1400.0
)

// Chapter 7 — multiple-master platform.

// Table72APM: access pattern matrix for the multiple-master infrastructure
// (Table 7.2), rows = client DC, columns = owner DC, percent.
var Table72APM = map[string]map[string]float64{
	"EU":  {"EU": 83.65, "NA": 12.71, "AUS": 1.67, "SA": 1.04, "AFR": 0.13, "AS1": 0.81},
	"NA":  {"EU": 15.47, "NA": 81.87, "AUS": 1.56, "SA": 0.91, "AFR": 0.01, "AS1": 0.18},
	"AUS": {"EU": 31.24, "NA": 13.72, "AUS": 50.28, "SA": 0.18, "AFR": 4.35, "AS1": 0.23},
	"SA":  {"EU": 38.99, "NA": 17.55, "AUS": 3.42, "SA": 39.87, "AFR": 0.08, "AS1": 0.09},
	"AFR": {"EU": 36.49, "NA": 31.38, "AUS": 13.45, "SA": 0.26, "AFR": 17.66, "AS1": 0.78},
	"AS1": {"EU": 61.00, "NA": 30.45, "AUS": 2.39, "SA": 0.85, "AFR": 0.04, "AS1": 5.27},
}

// Table73LinkUtil: average utilization (percent of allocated capacity)
// during 12:00-16:00 GMT for the multiple-master run (Table 7.3).
var Table73LinkUtil = map[string]float64{
	"NA->SA":   53,
	"NA->EU":   51,
	"NA->AS1":  76,
	"EU->AFR":  0,
	"EU->AS1":  0,
	"AS1->AFR": 67,
	"AS1->AS2": 56,
	"AS1->AUS": 66,
}

// Multiple-master headline results (Chapter 7).
const (
	// §7.4.1: peak utilizations on the downsized DNA hardware.
	MultiMasterAppPeakNA = 0.78
	MultiMasterDBPeakNA  = 0.39
	// §7.4.1: DEU utilizations.
	MultiMasterAppPeakEU = 0.57
	MultiMasterDBPeakEU  = 0.48
	// Fig. 7-6: background effectiveness in DNA (minutes).
	MultiMasterMaxStaleMin    = 19.0
	MultiMasterMaxUnsearchMin = 37.0
	// Fig. 7-4: peak pull/push volume at DNA (MB) — down ~43% from the
	// consolidated platform's 14.25 GB.
	MultiMasterPeakPushNAMB = 8000.0
	// Fig. 7-5: peak volume at DEU (MB).
	MultiMasterPeakPushEUMB = 5500.0
)
