// Package config loads and saves simulator inputs as JSON documents —
// the input-parameter files of §3.2.1 (data center specifications,
// topology, workloads) — and exports result series for external plotting
// (the visualization direction of §9.3.2).
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/topology"
	"repro/internal/workload"
)

// Document is a complete simulator input: the infrastructure, the
// application workloads and background daemons to impose on it, and the
// run parameters (window, seed, step, engine). A document compiles to a
// runnable experiment through experiment.FromDocument — the same surface
// Go-built scenarios use, so a JSON file and an option-assembled
// experiment with the same content produce the same Result.
type Document struct {
	// Name labels the scenario.
	Name string `json:"name"`
	// Seed is the base seed every derived random stream descends from.
	Seed uint64 `json:"seed,omitempty"`
	// Step is the time-loop granularity in seconds (0 selects the default).
	Step float64 `json:"step,omitempty"`
	// Engine is "" or "sequential"; experiment.FromDocument rejects every
	// other selector with experiment.ErrEngineRemoved.
	Engine string `json:"engine,omitempty"`
	// Window bounds the simulated span; nil selects the full day [0, 24).
	Window *WindowSpec `json:"window,omitempty"`
	// Infrastructure is the hardware and topology specification.
	Infrastructure topology.InfraSpec `json:"infrastructure"`
	// Workloads describe the applications per data center.
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Daemons declares the SYNCHREP/INDEXBUILD background daemons.
	Daemons *DaemonsSpec `json:"daemons,omitempty"`
	// AccessMatrix maps client DCs to owner-DC request fractions.
	AccessMatrix workload.AccessMatrix `json:"accessMatrix,omitempty"`
	// Faults schedules chaos injections over the run — each compiles to
	// the same experiment.WithFault surface Go-built scenarios use.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// WindowSpec is the JSON form of a run window: either a GMT hour window
// [startHour, endHour) — workload and growth curves are shifted so the
// simulation starts at startHour — or a plain duration in seconds.
type WindowSpec struct {
	StartHour int `json:"startHour,omitempty"`
	EndHour   int `json:"endHour,omitempty"`
	// RunSeconds, when positive, selects a fixed-length run instead of an
	// hour window; StartHour/EndHour must then be zero.
	RunSeconds float64 `json:"runSeconds,omitempty"`
}

// WorkloadSpec is the JSON form of one application workload at one DC.
type WorkloadSpec struct {
	App            string         `json:"app"`
	DC             string         `json:"dc"`
	Users          workload.Curve `json:"users"`
	OpsPerUserHour float64        `json:"opsPerUserHour"`
	// Weights biases the operation mix; empty selects a uniform mix.
	Weights []float64 `json:"weights,omitempty"`
	// Ops names the operation set ("CAD", "VIS", "PDM"); empty selects the
	// set named like the app.
	Ops string `json:"ops,omitempty"`
	// Stream sets the workload's RNG stream identity; 0 derives it from
	// app@dc. Two workloads sharing app and dc must declare distinct
	// non-zero streams.
	Stream uint64 `json:"stream,omitempty"`
	// ThinBelow overrides the expected-arrivals-per-tick threshold below
	// which arrivals are gap-sampled instead of drawn per tick; 0 selects
	// the default (workload.DefaultThinBelow), negative disables thinning
	// for this workload. Mirrors experiment.Workload.ThinBelow so the
	// thin/discrete/fluid threshold story is identical on both surfaces.
	ThinBelow float64 `json:"thinBelow,omitempty"`
	// Fluid engages the analytic client-aggregation tier (internal/fluid)
	// above the given expected-arrivals-per-tick threshold.
	Fluid *FluidSpec `json:"fluid,omitempty"`
}

// FluidSpec is the JSON form of a workload's fluid-tier configuration.
type FluidSpec struct {
	// Above is the expected-arrivals-per-tick threshold at or above which
	// the workload is aggregated analytically — the high-rate mirror of
	// thinBelow. Must be positive.
	Above float64 `json:"above"`
	// RhoMax is the saturation guard in (0, 1); 0 selects the default 0.9.
	RhoMax float64 `json:"rhoMax,omitempty"`
}

// DaemonsSpec is the JSON form of the background-daemon declaration.
type DaemonsSpec struct {
	// Masters lists the data centers running a SYNCHREP and an INDEXBUILD
	// daemon each.
	Masters []string `json:"masters"`
	// GrowthMBh gives each data center's hourly data-generation curve in
	// MB/hour (GMT).
	GrowthMBh map[string]workload.Curve `json:"growthMBh,omitempty"`
	// SyncIntervalMin / IndexGapMin override the thesis defaults (15 / 5).
	SyncIntervalMin float64 `json:"syncIntervalMin,omitempty"`
	IndexGapMin     float64 `json:"indexGapMin,omitempty"`
	// IndexHeadroom derives the index server's per-byte cost from the
	// master's peak owned generation rate (the Fig. 6-14 calibration);
	// zero keeps the background default.
	IndexHeadroom float64 `json:"indexHeadroom,omitempty"`
}

// FaultSpec is the JSON form of one scheduled fault injection.
type FaultSpec struct {
	// Name identifies the injection in reports and sweep axes. Required,
	// unique within the document.
	Name string `json:"name"`
	// Kind selects the fault type: "wan", "dc", "storage" or "failover".
	Kind string `json:"kind"`
	// At is the injection time in simulated seconds; Duration the injected
	// window. A zero duration elides the injection (fault-free baseline).
	At       float64 `json:"at"`
	Duration float64 `json:"duration"`
	// Magnitude is the severity in [0, 1]: 1 is a blackout, fractions are
	// brownouts/degradation. Storage faults cap it below 1.
	Magnitude float64 `json:"magnitude,omitempty"`
	// From/To name the endpoints of a wan fault or the master/secondary of
	// a failover.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// DC and Tier locate dc and storage faults.
	DC   string `json:"dc,omitempty"`
	Tier string `json:"tier,omitempty"`
	// RebuildMBps is the synthetic rebuild read bandwidth of a storage
	// fault, MB/s.
	RebuildMBps float64 `json:"rebuildMBps,omitempty"`
}

// validateFault checks one fault spec against the document's DC names.
// Magnitude-range and topology-level checks (does the WAN link exist, is
// the failover master a daemon) happen at compile time against the built
// target; here we catch the structural mistakes a document can express.
func (d *Document) validateFault(f FaultSpec, names map[string]bool, seen map[string]bool) error {
	if f.Name == "" {
		return fmt.Errorf("config: document %s: fault without a name", d.Name)
	}
	if seen[f.Name] {
		return fmt.Errorf("config: document %s: duplicate fault name %q", d.Name, f.Name)
	}
	seen[f.Name] = true
	if f.At < 0 || f.Duration < 0 {
		return fmt.Errorf("config: document %s: fault %s has a negative schedule", d.Name, f.Name)
	}
	switch f.Kind {
	case "wan":
		if !names[f.From] || !names[f.To] {
			return fmt.Errorf("config: document %s: fault %s: wan endpoints %q-%q must name data centers",
				d.Name, f.Name, f.From, f.To)
		}
	case "dc":
		if !names[f.DC] {
			return fmt.Errorf("config: document %s: fault %s: unknown DC %q", d.Name, f.Name, f.DC)
		}
	case "storage":
		if !names[f.DC] {
			return fmt.Errorf("config: document %s: fault %s: unknown DC %q", d.Name, f.Name, f.DC)
		}
		if f.Tier == "" {
			return fmt.Errorf("config: document %s: fault %s: storage fault needs a tier", d.Name, f.Name)
		}
	case "failover":
		if !names[f.From] || !names[f.To] {
			return fmt.Errorf("config: document %s: fault %s: failover %q -> %q must name data centers",
				d.Name, f.Name, f.From, f.To)
		}
	default:
		return fmt.Errorf("config: document %s: fault %s: unknown kind %q (have wan, dc, storage, failover)",
			d.Name, f.Name, f.Kind)
	}
	return nil
}

// Validate checks the document beyond JSON well-formedness.
func (d *Document) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("config: document needs a name")
	}
	if len(d.Infrastructure.DCs) == 0 {
		return fmt.Errorf("config: document %s has no data centers", d.Name)
	}
	names := map[string]bool{}
	for _, dc := range d.Infrastructure.DCs {
		names[dc.Name] = true
	}
	for _, w := range d.Workloads {
		if w.App == "" {
			return fmt.Errorf("config: workload without app name")
		}
		if !names[w.DC] {
			return fmt.Errorf("config: workload %s references unknown DC %q", w.App, w.DC)
		}
		if w.OpsPerUserHour <= 0 {
			return fmt.Errorf("config: workload %s/%s needs a positive rate", w.App, w.DC)
		}
		if f := w.Fluid; f != nil {
			if f.Above <= 0 {
				return fmt.Errorf("config: workload %s/%s: fluid threshold above must be positive", w.App, w.DC)
			}
			if f.RhoMax < 0 || f.RhoMax >= 1 {
				return fmt.Errorf("config: workload %s/%s: fluid guard rhoMax %v outside [0, 1)", w.App, w.DC, f.RhoMax)
			}
		}
	}
	if d.Step < 0 {
		return fmt.Errorf("config: document %s has a negative step", d.Name)
	}
	if w := d.Window; w != nil {
		switch {
		case w.RunSeconds < 0:
			return fmt.Errorf("config: document %s has a negative run length", d.Name)
		case w.RunSeconds > 0 && (w.StartHour != 0 || w.EndHour != 0):
			return fmt.Errorf("config: document %s sets both runSeconds and an hour window", d.Name)
		case w.RunSeconds == 0 && (w.StartHour < 0 || w.EndHour <= w.StartHour || w.EndHour > 24):
			return fmt.Errorf("config: document %s has a bad hour window [%d, %d)",
				d.Name, w.StartHour, w.EndHour)
		}
	}
	if dm := d.Daemons; dm != nil {
		if len(dm.Masters) == 0 {
			return fmt.Errorf("config: document %s declares daemons without masters", d.Name)
		}
		for _, m := range dm.Masters {
			if !names[m] {
				return fmt.Errorf("config: document %s: daemon master %q is not a data center", d.Name, m)
			}
		}
		for dc := range dm.GrowthMBh {
			if !names[dc] {
				return fmt.Errorf("config: document %s: growth curve for unknown DC %q", d.Name, dc)
			}
		}
		if dm.SyncIntervalMin < 0 || dm.IndexGapMin < 0 || dm.IndexHeadroom < 0 {
			return fmt.Errorf("config: document %s has negative daemon parameters", d.Name)
		}
		if d.AccessMatrix == nil {
			return fmt.Errorf("config: document %s declares daemons without an access matrix", d.Name)
		}
	}
	if d.AccessMatrix != nil {
		if err := d.AccessMatrix.Validate(); err != nil {
			return fmt.Errorf("config: document %s: %w", d.Name, err)
		}
	}
	seenFaults := map[string]bool{}
	for _, f := range d.Faults {
		if err := d.validateFault(f, names, seenFaults); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads and validates a document from JSON. The input must hold
// exactly one document: anything but whitespace after it is an error.
func Decode(r io.Reader) (*Document, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d Document
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		var syntax *json.SyntaxError
		if err != nil && !errors.As(err, &syntax) {
			return nil, fmt.Errorf("config: %w", err)
		}
		return nil, fmt.Errorf("config: trailing data after the document, which ends at byte offset %d", end)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Encode writes the document as indented JSON.
func (d *Document) Encode(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Load reads a document from a file.
func Load(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

// Save writes a document to a file.
func (d *Document) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := d.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
