package scenarios

import (
	"repro/internal/refdata"
	"repro/internal/workload"
)

// consolidatedTraits describes the consolidated Data Serving Platform of
// Fig. 6-2: DNA is the sole master, the other data centers serve files to
// their local client populations; AS2 is a served site without local
// clients (reached through AS1, Fig. 6-4).
//
// Business windows (GMT) place each region's 9-hour day; client peaks
// reproduce the population curves of Figs. 6-5..6-7 (global peaks ~2000
// CAD / ~2500 VIS / ~1400 PDM during the 12:00-16:00 overlap of NA, EU, SA
// and AFR). Growth plateaus integrate to daily volumes of roughly 9.0,
// 4.4, 2.0, 1.2, 0.6 and 1.0 GB (NA, EU, AS1, SA, AFR, AUS), the
// reconstruction of Fig. 6-10 that reproduces the Fig. 6-11 transfer
// volumes.
func consolidatedTraits() map[string]dcTraits {
	return map[string]dcTraits{
		"NA": {
			BizStart: 13, BizEnd: 22,
			CADPeak: 950, VISPeak: 1150, PDMPeak: 700,
			GrowthPeakMBh: 1000,
			Master:        true,
			AppServers:    8, AppCores: 16,
			DBServers: 6, DBCores: 32,
			IdxServers: 3, IdxCores: 32,
			FSServers: 3, FSCores: 24,
			ClientSlots: 256,
		},
		"EU": {
			BizStart: 8, BizEnd: 17,
			CADPeak: 700, VISPeak: 850, PDMPeak: 450,
			GrowthPeakMBh: 520,
			FSServers:     3, FSCores: 16,
			ClientSlots: 192,
		},
		"AS1": {
			BizStart: 1, BizEnd: 10,
			CADPeak: 250, VISPeak: 320, PDMPeak: 150,
			GrowthPeakMBh: 235,
			FSServers:     2, FSCores: 24,
			ClientSlots: 64,
		},
		"AS2": {
			BizStart: 1, BizEnd: 10,
			FSServers: 1, FSCores: 16,
		},
		"SA": {
			BizStart: 12, BizEnd: 21,
			CADPeak: 140, VISPeak: 170, PDMPeak: 80,
			GrowthPeakMBh: 140,
			FSServers:     2, FSCores: 24,
			ClientSlots: 64,
		},
		"AFR": {
			BizStart: 7, BizEnd: 16,
			CADPeak: 80, VISPeak: 100, PDMPeak: 50,
			GrowthPeakMBh: 70,
			FSServers:     1, FSCores: 32,
			ClientSlots: 32,
		},
		"AUS": {
			BizStart: 23, BizEnd: 8,
			CADPeak: 120, VISPeak: 150, PDMPeak: 80,
			GrowthPeakMBh: 118,
			FSServers:     2, FSCores: 32,
			ClientSlots: 32,
		},
	}
}

// consolidationStudy is the Chapter 6 case study: eleven data centers
// consolidated into six (plus the AS2 site), DNA as single master running
// the SYNCHREP and INDEXBUILD daemons.
func consolidationStudy() caseStudy {
	return caseStudy{
		name:     "consolidation",
		traits:   consolidatedTraits(),
		apm:      workload.SingleMaster(refdata.ConsolidatedDCs, "NA"),
		masters:  []string{"NA"},
		headroom: 1.022,
	}
}

// NewConsolidation builds the Chapter 6 case study (consolidationStudy).
func NewConsolidation(cfg CaseConfig) (*CaseStudy, error) {
	return buildCaseStudy(consolidationStudy(), cfg)
}
