package experiment

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
)

// Sweep expands a parameter grid over a base experiment into independent
// simulations and runs them concurrently. Each grid point re-assembles a
// fresh Experiment from the base factory — points never share a Simulation,
// an engine, or any mutable state — and runs under a deterministically
// derived seed (core.DeriveSeed of the base seed and the point index), so
// per-point results are bit-identical regardless of worker count and
// completion order.
//
// Per-point seeds make points statistically independent replications; the
// flip side is that cross-point differences mix the swept parameter with
// arrival noise. For common-random-number comparisons — the same arrival
// history replayed against every variant — add a single-valued "seed" axis
// (Vary("seed", s)), which overrides the per-index derivation for every
// point; add more values to the axis for replicated CRN comparisons.
type Sweep struct {
	name string
	base func() (*Experiment, error)
	axes []axis
}

// axis is one grid dimension: either a value axis (a settable parameter
// path plus values) or a mutator axis (named arbitrary experiment edits).
type axis struct {
	path     string
	values   []float64
	labels   []string // values formatted, once, for PointValue.Label
	variants []Variant
}

func (a axis) name() string { return a.path }

func (a axis) size() int {
	if len(a.variants) > 0 {
		return len(a.variants)
	}
	return len(a.values)
}

// Variant is one point of a mutator axis: a label for reporting plus an
// arbitrary experiment edit.
type Variant struct {
	Label string
	Apply func(*Experiment) error
}

// NewSweep creates a sweep over experiments assembled by base. The factory
// runs once per grid point — Run validates the grid on the experiment it
// then hands to point 0 — so everything it builds is per-point private;
// expensive shared inputs should be built outside and captured read-only.
func NewSweep(name string, base func() (*Experiment, error)) *Sweep {
	return &Sweep{name: name, base: base}
}

// Vary adds a value axis: the parameter at path takes each value in turn.
// Paths address the experiment's declarative surface:
//
//	seed                          base seed (overrides per-point derivation)
//	step                          time-loop granularity, seconds
//	dcs.<dc>.<tier>.cores         per-server core count of a tier
//	dcs.<dc>.<tier>.servers       server count of a tier
//	dcs.<dc>.clients.slots        client population slots of a DC
//	wan.<a>-<b>.mbps              WAN bandwidth between two DCs, Mbps
//	workloads.<app>.<dc>.ops      operations per user-hour
//	workloads.<app>.<dc>.peak     population curve rescaled to this peak
//	workloads.<app>.<dc>.fluid    fluid-tier threshold (arrivals/tick); 0 disables
//	faults.<name>.magnitude       severity of a declared fault injection
//	faults.<name>.duration        injected window of a declared injection, seconds
//
// Fault axes address injections declared by WithFault on the base
// experiment, by injection name. A magnitude of 0 (or a duration of 0)
// turns that grid point into the fault-free baseline — the injection is
// elided at compile time, so the point is bit-identical to a run that
// never declared the fault.
//
// Unknown paths and empty value lists are rejected by Run with an error
// naming the offending axis.
func (s *Sweep) Vary(path string, values ...float64) *Sweep {
	labels := make([]string, len(values))
	for i, v := range values {
		labels[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	s.axes = append(s.axes, axis{path: path, values: values, labels: labels})
	return s
}

// VaryFunc adds a mutator axis: each variant applies an arbitrary edit to
// the per-point experiment. The name labels the axis in results and CSV.
func (s *Sweep) VaryFunc(name string, variants ...Variant) *Sweep {
	s.axes = append(s.axes, axis{path: name, variants: variants})
	return s
}

// PointValue records one axis coordinate of a grid point.
type PointValue struct {
	Axis  string
	Label string  // the variant label, or the formatted value
	Value float64 // the numeric value (0 for mutator axes)
}

// PointResult is the outcome of one grid point.
type PointResult struct {
	Index  int
	Seed   uint64
	Values []PointValue
	Res    *Result
	Err    error
}

// PointError is the error of a grid point whose assembly or run panicked —
// in the base factory, an axis mutator, Compile or Execute, or in an agent
// an engine stepped on one of its workers (that panic reaches the point as
// a *dispatch.ShardPanic). The sweep recovers it so one bad point cannot
// take the campaign (and the process) down: the other points finish, and
// the panic is reported like any other point failure, reachable with
// errors.As through the error Sweep.Run joins.
type PointError struct {
	Index  int
	Seed   uint64
	Values []PointValue // the coordinates applied before the panic
	Panic  any          // the recovered value
	// Stack is the recovering goroutine's stack. When Panic is a
	// *dispatch.ShardPanic, the stack where the agent failed is its Stack.
	Stack []byte
}

func (e *PointError) Error() string {
	return fmt.Sprintf("panic: %v (seed %d, %d axis values applied)", e.Panic, e.Seed, len(e.Values))
}

// Unwrap exposes a panic value that is itself an error.
func (e *PointError) Unwrap() error {
	err, _ := e.Panic.(error)
	return err
}

// SweepResult aggregates a sweep run.
type SweepResult struct {
	Name string
	// Axes lists the axis names in declaration order (first axis varies
	// slowest in point order).
	Axes []string
	// Points holds one entry per grid point, in point-index order —
	// independent of the completion order of the worker pool.
	Points []PointResult
	// Workers is the pool size the sweep ran with.
	Workers int
}

// Validate checks the grid without running anything: the base factory must
// produce a valid experiment, every axis needs at least one value, and
// every value-axis path must resolve against the base experiment and pass
// the experiment gate once applied. It is run by Run; exposed for callers
// wanting early errors (CLI flag parsing).
func (s *Sweep) Validate() error {
	_, err := s.validate()
	return err
}

// validate is Validate returning the base experiment the grid was checked
// against, as the factory made it: Run hands it to point 0, so the factory
// runs once per point.
func (s *Sweep) validate() (*Experiment, error) {
	if s.base == nil {
		return nil, fmt.Errorf("sweep %s: needs a base experiment factory", s.name)
	}
	if len(s.axes) == 0 {
		return nil, fmt.Errorf("sweep %s: needs at least one axis (Vary or VaryFunc)", s.name)
	}
	base, err := s.base()
	if err != nil {
		return nil, fmt.Errorf("sweep %s: base experiment: %w", s.name, err)
	}
	var dry *Experiment // the one clone of base every value is dry-applied to
	for _, ax := range s.axes {
		if ax.size() == 0 {
			return nil, fmt.Errorf("sweep %s: axis %q has no values", s.name, ax.name())
		}
		if len(ax.variants) > 0 {
			for i, v := range ax.variants {
				if v.Apply == nil {
					return nil, fmt.Errorf("sweep %s: axis %q variant %d (%s) has no Apply function",
						s.name, ax.name(), i, v.Label)
				}
			}
			continue
		}
		// Dry-apply every value against the base and run the gate on it, so
		// unknown paths and unusable values fail before any simulation is
		// built — a bad late value must not surface only after the valid
		// points have already burned their simulation time. Each value starts
		// from the base again, because real points also apply at most one
		// value per axis to a fresh experiment; relative paths ("peak"
		// rescales the current curve) would compound if dry-applied
		// cumulatively.
		for _, v := range ax.values {
			if dry == nil {
				dry = base.clone()
			} else {
				base.reset(dry)
			}
			if err := applyPath(dry, ax.path, v); err != nil {
				return nil, fmt.Errorf("sweep %s: %w", s.name, err)
			}
			if err := dry.validate(); err != nil {
				return nil, fmt.Errorf("sweep %s: sweep axis %q: %w", s.name, ax.path, err)
			}
		}
	}
	return base, nil
}

// Size returns the number of grid points.
func (s *Sweep) Size() int {
	if len(s.axes) == 0 {
		return 0
	}
	n := 1
	for _, ax := range s.axes {
		n *= ax.size()
	}
	return n
}

// Run validates the grid, expands it, and executes every point on a pool
// of workers (<= 0 selects GOMAXPROCS). The returned SweepResult orders
// points by index; the error is non-nil when validation fails or any point
// failed (joined per-point errors, with the successful points still in the
// result).
func (s *Sweep) Run(workers int) (*SweepResult, error) {
	base, err := s.validate()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := s.Size()
	out := &SweepResult{Name: s.name, Points: make([]PointResult, n), Workers: workers}
	for _, ax := range s.axes {
		out.Axes = append(out.Axes, ax.name())
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				var e *Experiment
				if idx == 0 {
					e = base
				}
				out.Points[idx] = s.runPoint(idx, e)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	var errs []error
	for i := range out.Points {
		if err := out.Points[i].Err; err != nil {
			errs = append(errs, fmt.Errorf("point %d: %w", i, err))
		}
	}
	return out, errors.Join(errs...)
}

// runPoint assembles, seeds, mutates and runs one grid point, on e when it
// is given (the base experiment the grid was validated against) and on a
// fresh experiment from the factory otherwise. Each slot of the result
// slice is written exactly once, by whichever worker drew the index —
// determinism comes from the per-point derivation, not from scheduling. A
// panic anywhere in the point becomes its PointError.
func (s *Sweep) runPoint(idx int, e *Experiment) (pr PointResult) {
	pr.Index = idx
	defer func() {
		// Experiment.Run has released the point's engine on its way out.
		if p := recover(); p != nil {
			pr.Err = &PointError{Index: idx, Seed: pr.Seed, Values: pr.Values, Panic: p, Stack: debug.Stack()}
		}
	}()
	if e == nil {
		var err error
		if e, err = s.base(); err != nil {
			pr.Err = fmt.Errorf("base experiment: %w", err)
			return pr
		}
	}
	// Derive the point seed before applying axes, so a "seed" axis can
	// still take explicit control of it. Record it immediately: a point
	// that fails mid-axis-application must still report the seed it would
	// have run under.
	e.seed = core.DeriveSeed(e.seed, uint64(idx))
	pr.Seed = e.seed

	// Decompose the index into axis coordinates, first axis slowest: the
	// stride of an axis is the point count of the axes after it.
	rem, stride := idx, s.Size()
	pr.Values = make([]PointValue, 0, len(s.axes))
	for _, ax := range s.axes {
		stride /= ax.size()
		c := rem / stride
		rem %= stride
		if len(ax.variants) > 0 {
			v := ax.variants[c]
			if err := v.Apply(e); err != nil {
				pr.Err = fmt.Errorf("axis %q variant %s: %w", ax.name(), v.Label, err)
				return pr
			}
			pr.Values = append(pr.Values, PointValue{Axis: ax.name(), Label: v.Label})
			continue
		}
		val := ax.values[c]
		if err := applyPath(e, ax.path, val); err != nil {
			pr.Err = err
			return pr
		}
		pr.Values = append(pr.Values, PointValue{Axis: ax.name(), Label: ax.labels[c], Value: val})
	}
	pr.Seed = e.seed // a "seed" axis may have overridden the derivation
	if err := e.validate(); err != nil {
		labels := make([]string, len(pr.Values))
		for i, pv := range pr.Values {
			labels[i] = pv.Axis + "=" + pv.Label
		}
		pr.Err = fmt.Errorf("sweep axes %s: %w", strings.Join(labels, ", "), err)
		return pr
	}
	res, err := e.Run()
	if err != nil {
		pr.Err = err
		return pr
	}
	// Sweep consumers read the uniform harvest (Stats, Series, Responses,
	// Digest); dropping the simulation and compile graph here keeps an
	// N-point SweepResult from pinning N complete simulations — agents,
	// queues, flow state — in memory for the lifetime of the result. Run a
	// single Experiment directly when per-run Sim inspection is needed.
	res.Sim = nil
	res.Run = nil
	pr.Res = res
	return pr
}

// pathGrammar documents the supported value-axis paths in errors.
const pathGrammar = "seed | step | dcs.<dc>.<tier>.cores|servers | dcs.<dc>.clients.slots | wan.<a>-<b>.mbps | workloads.<app>.<dc>.ops|peak|fluid | faults.<name>.magnitude|duration"

// applyPath sets one settable parameter of the experiment. It only parses
// the path and writes the value: whether the value is usable is the gate's
// decision (Experiment.validate), which Sweep.Validate and every point run
// after applying. The checks left here are the path's own — a name that
// resolves, a value that converts to the field's integer type. Errors name
// the path and what was expected, so a mistyped axis fails with an
// actionable message instead of a silently unchanged grid.
func applyPath(e *Experiment, path string, v float64) error {
	parts := strings.Split(path, ".")
	switch parts[0] {
	case "seed":
		if len(parts) != 1 {
			return pathErr(path, "seed takes no sub-path")
		}
		// uint64 conversion truncates fractions and is implementation-defined
		// outside [0, 2^64).
		if v < 0 || v >= 1<<64 || v != math.Trunc(v) {
			return pathErr(path, fmt.Sprintf("seed must be a whole number in [0, 2^64), got %v", v))
		}
		e.seed = uint64(v)
		return nil
	case "step":
		if len(parts) != 1 {
			return pathErr(path, "step takes no sub-path")
		}
		e.step = v
		return nil
	case "dcs":
		return applyDCPath(e, path, parts, v)
	case "wan":
		return applyWANPath(e, path, parts, v)
	case "workloads":
		return applyWorkloadPath(e, path, parts, v)
	case "faults":
		return applyFaultPath(e, path, parts, v)
	}
	return pathErr(path, fmt.Sprintf("unknown root %q; supported: %s", parts[0], pathGrammar))
}

func applyDCPath(e *Experiment, path string, parts []string, v float64) error {
	if len(parts) != 4 {
		return pathErr(path, "want dcs.<dc>.<tier>.cores|servers or dcs.<dc>.clients.slots")
	}
	dcName, tierName, field := parts[1], parts[2], parts[3]
	// Every dcs.* path is a count, and int(v) truncates: 2.5 cores would
	// run 2 while the CSV reports 2.5. Outside ±2^31 a count would not fit
	// a 32-bit int, and ±Inf has no integer conversion at all.
	if v != math.Trunc(v) || math.Abs(v) > math.MaxInt32 {
		return pathErr(path, fmt.Sprintf("%s must be a whole number below 2^31, got %v", field, v))
	}
	var dc *topology.DCSpec
	for i := range e.infra.DCs {
		if e.infra.DCs[i].Name == dcName {
			dc = &e.infra.DCs[i]
			break
		}
	}
	if dc == nil {
		return pathErr(path, fmt.Sprintf("unknown DC %q (have %s)", dcName, specDCNames(e.infra)))
	}
	if tierName == "clients" && field == "slots" {
		c, ok := e.infra.Clients[dcName]
		if !ok {
			return pathErr(path, fmt.Sprintf("DC %q has no client population", dcName))
		}
		c.Slots = int(v)
		e.infra.Clients[dcName] = c
		return nil
	}
	var tier *topology.TierSpec
	for i := range dc.Tiers {
		if dc.Tiers[i].Name == tierName {
			tier = &dc.Tiers[i]
			break
		}
	}
	if tier == nil {
		names := make([]string, 0, len(dc.Tiers))
		for _, t := range dc.Tiers {
			names = append(names, t.Name)
		}
		return pathErr(path, fmt.Sprintf("DC %q has no tier %q (have %s; \"clients\" addresses the client population)",
			dcName, tierName, strings.Join(names, ", ")))
	}
	switch field {
	case "cores":
		tier.Server.CPU.Cores = int(v)
	case "servers":
		tier.Servers = int(v)
	default:
		return pathErr(path, fmt.Sprintf("unknown tier field %q (want cores or servers)", field))
	}
	return nil
}

func applyWANPath(e *Experiment, path string, parts []string, v float64) error {
	if len(parts) != 3 || parts[2] != "mbps" {
		return pathErr(path, "want wan.<a>-<b>.mbps")
	}
	a, b, ok := strings.Cut(parts[1], "-")
	if !ok {
		return pathErr(path, "want wan.<a>-<b>.mbps")
	}
	found := false
	for i := range e.infra.WAN {
		w := &e.infra.WAN[i]
		if (w.From == a && w.To == b) || (w.From == b && w.To == a) {
			w.Link.Gbps = v / 1000
			found = true
		}
	}
	if !found {
		return pathErr(path, fmt.Sprintf("no WAN connection between %q and %q", a, b))
	}
	return nil
}

func applyWorkloadPath(e *Experiment, path string, parts []string, v float64) error {
	if len(parts) != 4 {
		return pathErr(path, "want workloads.<app>.<dc>.ops|peak|fluid")
	}
	app, dc, field := parts[1], parts[2], parts[3]
	var w *Workload
	for i := range e.workloads {
		if e.workloads[i].App == app && e.workloads[i].DC == dc {
			w = &e.workloads[i]
			break
		}
	}
	if w == nil {
		return pathErr(path, fmt.Sprintf("no workload %s@%s declared", app, dc))
	}
	switch field {
	case "ops":
		w.OpsPerUserHour = v
	case "peak":
		peak := w.Users.Peak()
		if peak <= 0 {
			return pathErr(path, "workload curve has no positive peak to rescale")
		}
		w.Users = w.Users.Scale(v / peak)
	case "fluid":
		// Sweep axis over the fluid-tier engagement threshold (expected
		// arrivals per tick); 0 disables the tier for the point, making
		// "fluid vs discrete" a one-axis A/B sweep.
		w.Fluid.Above = v
	default:
		return pathErr(path, fmt.Sprintf("unknown workload field %q (want ops, peak or fluid)", field))
	}
	return nil
}

func applyFaultPath(e *Experiment, path string, parts []string, v float64) error {
	if len(parts) != 3 {
		return pathErr(path, "want faults.<name>.magnitude|duration")
	}
	name, field := parts[1], parts[2]
	var inj *faults.Injection
	for i := range e.faults {
		if e.faults[i].Name == name {
			inj = &e.faults[i]
			break
		}
	}
	if inj == nil {
		names := make([]string, 0, len(e.faults))
		for _, fi := range e.faults {
			names = append(names, fi.Name)
		}
		return pathErr(path, fmt.Sprintf("no fault injection %q declared (have %s)",
			name, strings.Join(names, ", ")))
	}
	switch field {
	case "magnitude":
		mf, ok := inj.Fault.(faults.MagnitudeFault)
		if !ok {
			return pathErr(path, fmt.Sprintf("fault %s has no sweepable magnitude", inj.Fault.Describe()))
		}
		if err := mf.SetMagnitude(v); err != nil {
			return pathErr(path, err.Error())
		}
	case "duration":
		inj.Duration = v
	default:
		return pathErr(path, fmt.Sprintf("unknown fault field %q (want magnitude or duration)", field))
	}
	return nil
}

func pathErr(path, detail string) error {
	return fmt.Errorf("sweep axis %q: %s", path, detail)
}

func specDCNames(spec *topology.InfraSpec) string {
	names := make([]string, 0, len(spec.DCs))
	for _, dc := range spec.DCs {
		names = append(names, dc.Name)
	}
	return strings.Join(names, ", ")
}

// Column is one metric column of the sweep CSV export.
type Column struct {
	Name  string
	Value func(*Result) float64
}

// DefaultColumns are the metric columns every sweep can report.
var DefaultColumns = []Column{
	{"completed_ops", func(r *Result) float64 { return float64(r.Stats.CompletedOps) }},
	{"sim_seconds", func(r *Result) float64 { return r.Stats.Seconds }},
	{"jumps", func(r *Result) float64 { return float64(r.Stats.Jumps) }},
	{"skipped_ticks", func(r *Result) float64 { return float64(r.Stats.SkippedTicks) }},
}

// WriteCSV exports the sweep as one row per point: point index, seed, one
// column per axis, the metric columns (DefaultColumns when none given) and
// a trailing error column for failed points.
func (sr *SweepResult) WriteCSV(w io.Writer, cols ...Column) error {
	if len(cols) == 0 {
		cols = DefaultColumns
	}
	cw := csv.NewWriter(w)
	header := []string{"point", "seed"}
	header = append(header, sr.Axes...)
	for _, c := range cols {
		header = append(header, c.Name)
	}
	header = append(header, "error")
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	for i := range sr.Points {
		p := &sr.Points[i]
		rec := []string{strconv.Itoa(p.Index), strconv.FormatUint(p.Seed, 10)}
		for _, av := range p.Values {
			rec = append(rec, av.Label)
		}
		for len(rec) < 2+len(sr.Axes) {
			rec = append(rec, "") // failed before all axes were applied
		}
		for _, c := range cols {
			if p.Res != nil {
				rec = append(rec, strconv.FormatFloat(c.Value(p.Res), 'g', -1, 64))
			} else {
				rec = append(rec, "")
			}
		}
		if p.Err != nil {
			rec = append(rec, p.Err.Error())
		} else {
			rec = append(rec, "")
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}
