package experiment

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"repro/internal/apps"
	"repro/internal/background"
	"repro/internal/cascade"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ErrEngineRemoved is the error FromDocument wraps when a document selects
// an engine other than "" or "sequential". The selectors it used to accept
// ("sharded:<n>", "sharded:auto", "scattergather:<n>", "hdispatch:<n>[:<set>]")
// never changed a result, and a run's time loop no longer sweeps through an
// engine, so they could only have been silently ignored.
var ErrEngineRemoved = errors.New("engine selectors other than \"sequential\" were removed")

// FromDocument compiles a JSON scenario document into an experiment — the
// one-surface guarantee of the experiment API: a document and a Go-built
// experiment with the same content produce the same Result, because both
// reduce to the same Experiment value before anything is simulated. Each
// field maps onto its option unchanged (zero leaves the option's default),
// and New's gate decides whether the values are usable, exactly as for a
// Go-built experiment.
func FromDocument(d *config.Document) (*Experiment, error) {
	opts := []Option{
		WithInfra(d.Infrastructure),
		WithSeed(d.Seed),
	}
	if d.Step != 0 {
		opts = append(opts, WithStep(d.Step))
	}
	if d.Engine != "" && d.Engine != "sequential" {
		return nil, fmt.Errorf("experiment: document %s: engine %q: %w; results never depended on it, "+
			"and more cores go to sweep points run in parallel (gdisim -workers, Sweep.Run(n))", d.Name, d.Engine, ErrEngineRemoved)
	}
	if w := d.Window; w == nil {
		opts = append(opts, WithWindow(0, 24))
	} else {
		if w.RunSeconds != 0 {
			opts = append(opts, WithDuration(w.RunSeconds))
		}
		if w.RunSeconds == 0 || w.StartHour != 0 || w.EndHour != 0 {
			opts = append(opts, WithWindow(w.StartHour, w.EndHour))
		}
	}
	if d.AccessMatrix != nil {
		opts = append(opts, WithAccessMatrix(d.AccessMatrix))
	}
	dcNames := make([]string, 0, len(d.Infrastructure.DCs))
	for _, dc := range d.Infrastructure.DCs {
		dcNames = append(dcNames, dc.Name)
	}
	for _, w := range d.Workloads {
		ew := Workload{
			App:            w.App,
			DC:             w.DC,
			Users:          w.Users,
			OpsPerUserHour: w.OpsPerUserHour,
			Weights:        w.Weights,
			Stream:         w.Stream,
			ThinBelow:      w.ThinBelow,
		}
		if w.Fluid != nil {
			ew.Fluid = Fluid{Above: w.Fluid.Above, RhoMax: w.Fluid.RhoMax}
			if err := ew.Fluid.engages(w.App, w.DC); err != nil {
				return nil, fmt.Errorf("experiment: document %s: %w", d.Name, err)
			}
		}
		name := w.Ops
		if name == "" {
			name = w.App
		}
		fn, err := OpsByName(name, w.DC)
		if err != nil {
			return nil, fmt.Errorf("experiment: document %s: workload %s@%s: %w", d.Name, w.App, w.DC, err)
		}
		ew.OpsFn = fn
		ew.OpsKey = opsKey(name, w.DC)
		if d.AccessMatrix == nil {
			// Without a document-level access matrix every workload
			// manipulates files owned by its own data center.
			ew.APM = workload.SingleMaster(dcNames, w.DC)
		}
		opts = append(opts, WithWorkload(ew))
	}
	if dm := d.Daemons; dm != nil {
		opts = append(opts, WithDaemons(Daemons{
			Masters:         dm.Masters,
			Growth:          background.GrowthModel(maps.Clone(dm.GrowthMBh)),
			SyncIntervalSec: dm.SyncIntervalMin * 60,
			IndexGapSec:     dm.IndexGapMin * 60,
			IndexHeadroom:   dm.IndexHeadroom,
		}))
	}
	if len(d.Faults) > 0 {
		inj := make([]faults.Injection, 0, len(d.Faults))
		for _, fs := range d.Faults {
			fault, err := compileFault(fs)
			if err != nil {
				return nil, fmt.Errorf("experiment: document %s: %w", d.Name, err)
			}
			inj = append(inj, faults.Injection{
				Name: fs.Name, Fault: fault, At: fs.At, Duration: fs.Duration,
			})
		}
		opts = append(opts, WithFault(inj...))
	}
	return New(d.Name, opts...)
}

// compileFault maps a document fault spec onto the fault library. The
// fault's own Validate runs later, at compile time against the built
// target — this only selects the kind.
func compileFault(fs config.FaultSpec) (faults.Fault, error) {
	switch fs.Kind {
	case "wan":
		return &faults.WAN{From: fs.From, To: fs.To, Mag: fs.Magnitude}, nil
	case "dc":
		return &faults.DC{DC: fs.DC, Mag: fs.Magnitude}, nil
	case "storage":
		return &faults.Storage{DC: fs.DC, Tier: fs.Tier, Mag: fs.Magnitude, RebuildMBps: fs.RebuildMBps}, nil
	case "failover":
		return &faults.Failover{From: fs.From, To: fs.To}, nil
	}
	return nil, fmt.Errorf("fault %s: unknown kind %q", fs.Name, fs.Kind)
}

// LoadDocument reads a scenario document from a JSON file and compiles it.
func LoadDocument(path string) (*Experiment, error) {
	d, err := config.Load(path)
	if err != nil {
		return nil, err
	}
	return FromDocument(d)
}

// opsKey is the key workloads share a named operation set's catalog by:
// the calibrated CAD set is built per data center, VIS and PDM once.
func opsKey(name, dc string) string {
	if name == "CAD" {
		return name + "@" + dc
	}
	return name
}

// The VIS and PDM catalogs are infrastructure-independent, so one of each
// serves every run of the process. Nothing writes into a catalog once its
// OpsFn has returned it: launchers, program tables and the fluid station
// only read operations, and calibration copies what it changes.
var (
	visCatalog = sync.OnceValue(apps.VISOps)
	pdmCatalog = sync.OnceValue(apps.PDMOps)
)

// OpsByName resolves a named operation set to an OpsFn. The calibrated CAD
// set is built against the workload's own data center (local = master for
// calibration purposes — the APM still decides per-launch ownership); VIS
// and PDM are infrastructure-independent and built once per process,
// read-only.
func OpsByName(name, dc string) (func(*topology.Infrastructure, float64) ([]cascade.Op, error), error) {
	switch name {
	case "CAD":
		return func(inf *topology.Infrastructure, step float64) ([]cascade.Op, error) {
			home := inf.DC(dc)
			return apps.CalibratedCADOps(inf, home, home, step)
		}, nil
	case "VIS":
		return func(*topology.Infrastructure, float64) ([]cascade.Op, error) {
			return visCatalog(), nil
		}, nil
	case "PDM":
		return func(*topology.Infrastructure, float64) ([]cascade.Op, error) {
			return pdmCatalog(), nil
		}, nil
	}
	return nil, fmt.Errorf("unknown operation set %q (have CAD, VIS, PDM)", name)
}
