// Package config loads and saves simulator inputs as JSON documents —
// the input-parameter files of §3.2.1 (data center specifications,
// topology, workloads) — and exports result series for external plotting
// (the visualization direction of §9.3.2). It decodes and encodes only:
// Decode and Load reject malformed JSON, unknown fields and trailing data,
// and every check on the values is made once, by the experiment gate that
// experiment.FromDocument runs.
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
	// Ops names the operation set, as experiment.Workload.Set does: "VIS",
	// "PDM", "CAD@<dc>" (the CAD mix calibrated against data center <dc>)
	// or "CAD", calibrated at this workload's own DC. Empty selects the set
	// named like the app. Workloads naming one set share its catalog.
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

// DaemonsSpec is the JSON form of the background-daemon declaration. The
// daemons run at the thesis' cadence (a SYNCHREP cycle every 15 minutes, a
// 5-minute gap between index builds), which no document field changes.
type DaemonsSpec struct {
	// Masters lists the data centers running a SYNCHREP and an INDEXBUILD
	// daemon each.
	Masters []string `json:"masters"`
	// GrowthMBh gives each data center's hourly data-generation curve in
	// MB/hour (GMT).
	GrowthMBh map[string]workload.Curve `json:"growthMBh,omitempty"`
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

// Decode reads a document from JSON. It checks the JSON shape only — no
// unknown fields, exactly one document with nothing but whitespace after
// it; whether the values are usable is for experiment.FromDocument's gate.
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
	return &d, nil
}

// Encode writes the document as indented JSON.
func (d *Document) Encode(w io.Writer) error {
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
