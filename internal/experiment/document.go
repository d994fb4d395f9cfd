package experiment

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/background"
	"repro/internal/config"
	"repro/internal/faults"
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
// Go-built experiment. extra options apply last, for what a document does
// not say: the engine, the loop flags.
func FromDocument(d *config.Document, extra ...Option) (*Experiment, error) {
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
			Set:            w.Ops,
			Stream:         w.Stream,
			ThinBelow:      w.ThinBelow,
		}
		if w.Fluid != nil {
			ew.Fluid = Fluid{Above: w.Fluid.Above, RhoMax: w.Fluid.RhoMax}
			if err := ew.Fluid.engages(w.App, w.DC); err != nil {
				return nil, fmt.Errorf("experiment: document %s: %w", d.Name, err)
			}
		}
		if d.AccessMatrix == nil {
			// Without a document-level access matrix every workload
			// manipulates files owned by its own data center.
			ew.APM = workload.SingleMaster(dcNames, w.DC)
		}
		opts = append(opts, WithWorkload(ew))
	}
	if dm := d.Daemons; dm != nil {
		opts = append(opts, WithDaemons(Daemons{
			Masters:       dm.Masters,
			Growth:        background.GrowthModel(maps.Clone(dm.GrowthMBh)),
			IndexHeadroom: dm.IndexHeadroom,
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
	return New(d.Name, append(opts, extra...)...)
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
