// Package background implements the background processes of the Data
// Serving Platform (§6.3.2): Synchronization & Replication (SYNCHREP,
// Fig. 6-8) and Index Build (INDEXBUILD, Fig. 6-9), together with the
// data-growth model (Fig. 6-10) that drives their volumes and the
// ownership accounting of Chapter 7.
//
// Ownership is expressed through the Access Pattern Matrix: data created at
// a data center is attributed to owner data centers in proportion to where
// its requests come from (§7.2.1). With the single-master matrix of
// Chapter 6 every file belongs to DNA and the formulas reduce exactly to
// the consolidated platform's behaviour:
//
//	pull volume (master m <- src d) = growth_d x APM[d][m]
//	push volume (m -> dst)          = sum over src != dst of growth_src x APM[src][m]
package background

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// GrowthModel maps each data center to its hourly data-generation rate
// curve in MB/hour (Fig. 6-10).
type GrowthModel map[string]workload.Curve

// DCs returns the model's data centers in sorted order. Every float
// summation over the model iterates this order: map iteration order is
// randomized per run and float addition is not associative, so summing in
// map order would make volumes differ by ulps from run to run — breaking
// the bit-identical reproducibility the determinism contract promises.
func (g GrowthModel) DCs() []string {
	dcs := make([]string, 0, len(g))
	for dc := range g {
		dcs = append(dcs, dc)
	}
	sort.Strings(dcs)
	return dcs
}

// RateMBh returns the generation rate of a data center at time t (seconds).
func (g GrowthModel) RateMBh(dc string, t float64) float64 {
	c, ok := g[dc]
	if !ok {
		return 0
	}
	return c.At(t)
}

// VolumeMB integrates the generation rate of a data center over [t0, t1)
// seconds, by minute-level steps — exact enough for 15-minute windows over
// piecewise-linear curves.
func (g GrowthModel) VolumeMB(dc string, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	c, ok := g[dc]
	if !ok {
		return 0
	}
	const dt = 60.0
	vol := 0.0
	for t := t0; t < t1; t += dt {
		step := dt
		if t+step > t1 {
			step = t1 - t
		}
		vol += c.At(t+step/2) / 3600 * step
	}
	return vol
}

// OwnedVolumeMB returns the data volume generated across the infrastructure
// during [t0, t1) that is owned by master m under the access matrix.
func OwnedVolumeMB(g GrowthModel, apm workload.AccessMatrix, m string, t0, t1 float64) float64 {
	total := 0.0
	for _, src := range g.DCs() {
		share := apm[src][m]
		if share > 0 {
			total += g.VolumeMB(src, t0, t1) * share
		}
	}
	return total
}

// PullVolumeMB returns what master m pulls from src during [t0, t1): the
// data generated at src that m owns.
func PullVolumeMB(g GrowthModel, apm workload.AccessMatrix, m, src string, t0, t1 float64) (float64, error) {
	if m == src {
		return 0, nil
	}
	vol := g.VolumeMB(src, t0, t1)
	if vol == 0 {
		// Sites that generate no data (pure serving sites like AS2) need
		// no APM row.
		return 0, nil
	}
	row, ok := apm[src]
	if !ok {
		return 0, fmt.Errorf("background: APM has no row for %s", src)
	}
	return vol * row[m], nil
}

// PushVolumeMB returns what master m pushes to dst during [t0, t1): every
// m-owned file generated at any other data center.
func PushVolumeMB(g GrowthModel, apm workload.AccessMatrix, m, dst string, t0, t1 float64) (float64, error) {
	if m == dst {
		return 0, nil
	}
	total := 0.0
	for _, src := range g.DCs() {
		if src == dst {
			continue
		}
		vol := g.VolumeMB(src, t0, t1)
		if vol == 0 {
			continue
		}
		row, ok := apm[src]
		if !ok {
			return 0, fmt.Errorf("background: APM has no row for %s", src)
		}
		total += vol * row[m]
	}
	return total, nil
}
