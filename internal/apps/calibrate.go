package apps

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/refdata"
	"repro/internal/topology"
	"repro/internal/workload"
)

// CalibratedCADSeries builds the Light/Average/Heavy validation series
// (§5.2.2) on the given infrastructure, calibrating every operation's
// client-side work so its isolated duration matches Table 5.1. Returned
// series carry the published names; per-series operation names are suffixed
// with the series tag so response populations stay separable (the paper
// reports timings "by type and series").
func CalibratedCADSeries(inf *topology.Infrastructure, local, master *topology.DataCenter,
	step float64) (map[refdata.SeriesType]workload.Series, error) {

	out := make(map[refdata.SeriesType]workload.Series, len(refdata.SeriesTypes))
	for _, st := range refdata.SeriesTypes {
		ops := CADOpsBySeries(st)
		series := workload.Series{Name: string(st)}
		for _, op := range ops {
			target, ok := refdata.Table51Durations[st][op.Name]
			if !ok {
				return nil, fmt.Errorf("apps: no Table 5.1 target for %s", op.Name)
			}
			calibrated, err := cascade.CalibrateClientWork(op,
				cascade.NewBinding(inf, local, master), step, target)
			if err != nil {
				return nil, fmt.Errorf("apps: calibrating %s/%s: %w", st, op.Name, err)
			}
			calibrated.Name = op.Name + " [" + string(st) + "]"
			series.Ops = append(series.Ops, calibrated)
		}
		out[st] = series
	}
	return out, nil
}

// CalibratedCADOps builds a single calibrated CAD operation set against
// the Average-series targets, used by the Chapter 6-7 case studies where
// clients manipulate average-sized models.
func CalibratedCADOps(inf *topology.Infrastructure, local, master *topology.DataCenter,
	step float64) ([]cascade.Op, error) {

	ops := CADOpsBySeries(refdata.Average)
	out := make([]cascade.Op, 0, len(ops))
	for _, op := range ops {
		target := refdata.Table51Durations[refdata.Average][op.Name]
		calibrated, err := cascade.CalibrateClientWork(op,
			cascade.NewBinding(inf, local, master), step, target)
		if err != nil {
			return nil, fmt.Errorf("apps: calibrating %s: %w", op.Name, err)
		}
		out = append(out, calibrated)
	}
	return out, nil
}
