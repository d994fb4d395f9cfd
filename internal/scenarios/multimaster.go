package scenarios

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/refdata"
	"repro/internal/workload"
)

// multiMasterTraits upgrades the six client-facing data centers to masters
// (§7.3.1): every location gains app/db/idx tiers sized for the ownership
// share the Access Pattern Matrix assigns it, while DNA is scaled down
// (Tapp 8->4 servers, Tdb halved) because most of the global load it used
// to coordinate now lands on the file owners.
func multiMasterTraits() map[string]dcTraits {
	traits := consolidatedTraits()

	na := traits["NA"]
	na.AppServers, na.AppCores = 4, 16 // 8 servers -> 4 (§7.3.1)
	na.DBServers, na.DBCores = 2, 32   // 64 -> 32 cores... per server pair
	na.IdxServers, na.IdxCores = 1, 32
	traits["NA"] = na

	eu := traits["EU"]
	eu.Master = true
	eu.AppServers, eu.AppCores = 4, 16 // second-largest owner (Table 7.2)
	eu.DBServers, eu.DBCores = 2, 32
	eu.IdxServers, eu.IdxCores = 1, 16
	traits["EU"] = eu

	for _, dc := range []string{"AS1", "SA", "AFR", "AUS"} {
		tr := traits[dc]
		tr.Master = true
		tr.AppServers, tr.AppCores = 1, 16
		tr.DBServers, tr.DBCores = 1, 8
		tr.IdxServers, tr.IdxCores = 1, 8
		traits[dc] = tr
	}
	return traits
}

// MultiMasterAPM converts the published Table 7.2 percentages into a
// row-stochastic access matrix. Each row is summed in sorted owner order:
// a sum in map order would differ by an ulp from call to call.
func MultiMasterAPM() (workload.AccessMatrix, error) {
	apm := workload.AccessMatrix{}
	for from, row := range refdata.Table72APM {
		apm[from] = map[string]float64{}
		sum := 0.0
		for _, to := range slices.Sorted(maps.Keys(row)) {
			sum += row[to]
		}
		if sum <= 0 {
			return nil, fmt.Errorf("scenarios: empty APM row %s", from)
		}
		for to, p := range row {
			apm[from][to] = p / sum
		}
	}
	return apm, nil
}

// multiMasterStudy is the Chapter 7 case study: six master data centers,
// each owning the file subsets of Table 7.2 and running its own SYNCHREP
// and INDEXBUILD daemons (Fig. 7-3).
func multiMasterStudy() (caseStudy, error) {
	apm, err := MultiMasterAPM()
	if err != nil {
		return caseStudy{}, err
	}
	return caseStudy{
		name:     "multimaster",
		traits:   multiMasterTraits(),
		apm:      apm,
		masters:  []string{"AFR", "AS1", "AUS", "EU", "NA", "SA"},
		headroom: 1.09,
	}, nil
}

// NewMultiMaster builds the Chapter 7 case study (multiMasterStudy).
func NewMultiMaster(cfg CaseConfig) (*CaseStudy, error) {
	s, err := multiMasterStudy()
	if err != nil {
		return nil, err
	}
	return buildCaseStudy(s, cfg)
}
