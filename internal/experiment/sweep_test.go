package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
)

// testSweepBase is the 8-point grid base shared by the determinism tests:
// 4 core counts x 2 operation rates over the small PDM experiment.
func testSweepBase() func() (*Experiment, error) {
	return func() (*Experiment, error) { return New("grid", testOptions()...) }
}

func eightPointSweep() *Sweep {
	return NewSweep("grid", testSweepBase()).
		Vary("dcs.NA.app.cores", 2, 4, 8, 16).
		Vary("workloads.PDM.NA.ops", 20, 40)
}

// TestSweepDeterminismAcrossWorkers is the headline safety property of the
// sweep runner: every grid point runs as an independent simulation under a
// seed derived only from (base seed, point index), so the per-point result
// digests are bit-identical whether the pool has one worker or eight —
// whatever order the workers drain the grid in. Run under -race in CI, it
// also proves points share no mutable state.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) *SweepResult {
		res, err := eightPointSweep().Run(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Points) != 8 {
			t.Fatalf("workers=%d: %d points, want 8", workers, len(res.Points))
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial.Points {
		s, p := serial.Points[i], parallel.Points[i]
		if s.Seed != p.Seed {
			t.Errorf("point %d: seed %d (workers=1) vs %d (workers=8)", i, s.Seed, p.Seed)
		}
		if want := core.DeriveSeed(11, uint64(i)); s.Seed != want {
			t.Errorf("point %d: seed %d, want DeriveSeed(11, %d) = %d", i, s.Seed, i, want)
		}
		sd, pd := s.Res.Digest(), p.Res.Digest()
		if sd != pd {
			t.Errorf("point %d (%v): digest diverged across worker counts:\n%s\n%s",
				i, s.Values, sd, pd)
		}
		if s.Res.Stats.CompletedOps == 0 {
			t.Errorf("point %d completed no operations", i)
		}
		if s.Res.Sim != nil || s.Res.Run != nil {
			t.Errorf("point %d retains its simulation: sweep results must drop Sim/Run", i)
		}
	}
	// The grid must actually vary: distinct points, distinct outcomes.
	if serial.Points[0].Res.Digest() == serial.Points[7].Res.Digest() {
		t.Error("corner points of the grid produced identical results")
	}
}

// TestSweepRejectsInvalidGrids pins the actionable-error contract: unknown
// axis paths, unknown topology references and empty value lists fail
// before any simulation runs, naming the offending axis.
func TestSweepRejectsInvalidGrids(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Sweep
		want string
	}{
		{"no axes", func() *Sweep {
			return NewSweep("s", testSweepBase())
		}, "at least one axis"},
		{"empty values", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.app.cores")
		}, "has no values"},
		{"bad late value", func() *Sweep {
			// Every value is dry-applied: an out-of-range value after valid
			// ones must fail validation, not burn the grid first.
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.app.cores", 8, 16, 0)
		}, "invalid CPUSpec {Sockets:1 Cores:0 "},
		{"unknown root", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("warp.factor", 9)
		}, `unknown root "warp"`},
		{"unknown DC", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.MARS.app.cores", 8)
		}, `unknown DC "MARS"`},
		{"unknown tier", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.gpu.cores", 8)
		}, `no tier "gpu"`},
		{"unknown tier field", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.app.flux", 8)
		}, `unknown tier field "flux"`},
		{"unknown workload", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("workloads.CAD.NA.ops", 8)
		}, "no workload CAD@NA"},
		{"no wan", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("wan.NA-EU.mbps", 155)
		}, `no WAN connection between "NA" and "EU"`},
		{"nil variant", func() *Sweep {
			return NewSweep("s", testSweepBase()).VaryFunc("mut", Variant{Label: "x"})
		}, "no Apply function"},
		{"NaN step", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("step", 0.01, math.NaN())
		}, "step must be positive and finite, got NaN"},
		{"infinite step", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("step", math.Inf(1))
		}, "step must be positive and finite, got +Inf"},
		{"infinite cores", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.app.cores", math.Inf(1))
		}, "cores must be a whole number below 2^31, got +Inf"},
		{"negative infinite seed", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("seed", math.Inf(-1))
		}, "seed must be a whole number in [0, 2^64), got -Inf"},
		{"fractional cores", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.app.cores", 2.5)
		}, "cores must be a whole number below 2^31, got 2.5"},
		{"fractional servers", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.app.servers", 2, 3.25)
		}, "servers must be a whole number below 2^31, got 3.25"},
		{"fractional slots", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.clients.slots", 1.5)
		}, "slots must be a whole number below 2^31, got 1.5"},
		{"huge cores", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("dcs.NA.app.cores", 1e30)
		}, "cores must be a whole number below 2^31"},
		{"fractional seed", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("seed", 1, 7.5)
		}, "seed must be a whole number in [0, 2^64), got 7.5"},
		{"negative seed", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("seed", -1)
		}, "seed must be a whole number in [0, 2^64), got -1"},
		{"seed past uint64", func() *Sweep {
			return NewSweep("s", testSweepBase()).Vary("seed", 1<<64)
		}, "seed must be a whole number in [0, 2^64)"},
		{"bad base", func() *Sweep {
			return NewSweep("s", func() (*Experiment, error) { return New("broken") }).Vary("step", 0.01)
		}, "base experiment"},
	}
	for _, tc := range cases {
		s := tc.mk()
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, rerr := s.Run(1); rerr == nil {
			t.Errorf("%s: Run accepted an invalid grid", tc.name)
		}
	}
}

// TestSweepRelativePeakAxis pins that validation dry-applies each value
// against a fresh probe: "peak" rescales the current curve, so cumulative
// dry-application would zero the probe's curve at peak=0 and falsely
// reject the later (individually valid) values.
func TestSweepRelativePeakAxis(t *testing.T) {
	s := NewSweep("peaks", testSweepBase()).Vary("workloads.PDM.NA.peak", 0, 40)
	if err := s.Validate(); err != nil {
		t.Fatalf("grid of individually valid peak values rejected: %v", err)
	}
	res, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	// peak=0 is a legitimate zero-user point; peak=40 must complete work.
	if ops := res.Points[0].Res.Stats.CompletedOps; ops != 0 {
		t.Errorf("zero-peak point completed %d operations", ops)
	}
	if res.Points[1].Res.Stats.CompletedOps == 0 {
		t.Error("rescaled point completed nothing")
	}
}

// TestSweepCallsFactoryOncePerPoint pins the factory contract of NewSweep:
// one call per grid point. Validation dry-applies every axis value to one
// clone of the base it builds instead of building a probe each, and Run
// hands that base to point 0.
func TestSweepCallsFactoryOncePerPoint(t *testing.T) {
	var calls atomic.Int64
	s := NewSweep("counted", func() (*Experiment, error) {
		calls.Add(1)
		return testSweepBase()()
	}).Vary("dcs.NA.app.cores", 2, 4, 8).Vary("workloads.PDM.NA.peak", 0, 40)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("Validate called the factory %d times, want 1", n)
	}
	calls.Store(0)
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if n, want := calls.Load(), int64(s.Size()); n != want {
		t.Fatalf("Run called the factory %d times for %d points, want %d", n, s.Size(), want)
	}
}

// TestSweepFactoryFailuresNeverHang: at 1 and 4 workers, Run returns —
// under a deadline — and calls the factory exactly once per point whatever
// the factory or a point does. A factory failing from its k-th call on
// fails the points it was called for, each with its "base experiment"
// error, while point 0 runs on the base the grid was validated against; a
// panic in the factory or in an axis mutator (point 0's included) becomes
// that point's *PointError; and a factory failing during validation fails
// Run after that one call, before any point runs.
func TestSweepFactoryFailuresNeverHang(t *testing.T) {
	errFactory := errors.New("factory down")
	type outcome struct {
		res *SweepResult
		err error
	}
	run := func(t *testing.T, s *Sweep, workers int) (*SweepResult, error) {
		t.Helper()
		done := make(chan outcome, 1)
		go func() {
			res, err := s.Run(workers)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			return o.res, o.err
		case <-time.After(time.Minute):
			t.Fatal("Run did not return within a minute")
			return nil, nil
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var calls atomic.Int64
			counted := func(fail func(call int64) error) func() (*Experiment, error) {
				calls.Store(0)
				return func() (*Experiment, error) {
					if err := fail(calls.Add(1)); err != nil {
						return nil, err
					}
					return testSweepBase()()
				}
			}

			const k = 3 // the factory fails from its third call on
			failing := NewSweep("failing", counted(func(call int64) error {
				if call >= k {
					return errFactory
				}
				return nil
			})).Vary("dcs.NA.app.cores", 2, 4, 8).Vary("workloads.PDM.NA.ops", 20, 40)
			res, err := run(t, failing, workers)
			if n := calls.Load(); n != int64(failing.Size()) {
				t.Errorf("failing factory: %d calls for %d points", n, failing.Size())
			}
			failed := 0
			for i, p := range res.Points {
				if p.Err == nil {
					if p.Res == nil {
						t.Errorf("failing factory: point %d has neither a result nor an error", i)
					}
					continue
				}
				failed++
				want := fmt.Sprintf("point %d: base experiment: %v", i, errFactory)
				if !errors.Is(p.Err, errFactory) || p.Err.Error() != "base experiment: factory down" || !strings.Contains(err.Error(), want) {
					t.Errorf("failing factory: point %d error %q (joined %q), want %q", i, p.Err, err, want)
				}
			}
			if want := failing.Size() - (k - 1); failed != want {
				t.Errorf("failing factory: %d points failed, want %d", failed, want)
			}
			if res.Points[0].Err != nil {
				t.Errorf("failing factory: point 0 failed (%v), but it runs on the validated base", res.Points[0].Err)
			}
			if workers == 1 && (res.Points[1].Err != nil || res.Points[2].Err == nil) {
				t.Error("failing factory: one worker draws the points in order; points 1 and 2 should be the factory's second and third calls")
			}

			boom := func(*Experiment) error { panic("mutator boom") }
			panicking := NewSweep("panicking", counted(func(call int64) error {
				if call == 4 {
					panic("factory boom")
				}
				return nil
			})).VaryFunc("variant", Variant{Label: "boom", Apply: boom}, Variant{Label: "ok", Apply: func(*Experiment) error { return nil }}).
				Vary("workloads.PDM.NA.ops", 20, 40)
			res, err = run(t, panicking, workers)
			if n := calls.Load(); n != int64(panicking.Size()) {
				t.Errorf("panicking points: %d calls for %d points", n, panicking.Size())
			}
			factoryPanics := 0
			for i, p := range res.Points {
				var pe *PointError
				switch {
				case errors.As(p.Err, &pe) && pe.Panic == "factory boom":
					factoryPanics++
				case errors.As(p.Err, &pe) && pe.Panic == "mutator boom":
					if i >= 2 {
						t.Errorf("panicking points: point %d ran the boom variant", i)
					}
				case p.Err != nil || p.Res == nil:
					t.Errorf("panicking points: point %d: %v", i, p.Err)
				case i < 2:
					t.Errorf("panicking points: point %d survived its boom variant", i)
				}
			}
			if factoryPanics != 1 {
				t.Errorf("panicking points: %d points report the factory's panic, want 1", factoryPanics)
			}
			var pe *PointError
			if !errors.As(res.Points[0].Err, &pe) || pe.Panic != "mutator boom" {
				t.Errorf("panicking points: point 0 error %v, want the mutator's panic", res.Points[0].Err)
			}

			invalid := NewSweep("invalid", counted(func(int64) error { return errFactory })).
				Vary("dcs.NA.app.cores", 2, 4)
			res, err = run(t, invalid, workers)
			if n := calls.Load(); n != 1 {
				t.Errorf("factory failing validation: %d calls, want 1", n)
			}
			if res != nil || !errors.Is(err, errFactory) || err.Error() != "sweep invalid: base experiment: factory down" {
				t.Errorf("factory failing validation: result %v, error %v", res, err)
			}
		})
	}
}

// TestSweepFluidAxis pins the fluid-threshold axis as a one-axis A/B: at 0
// the tier is disabled (discrete sampling, no analytic series), at a
// threshold under the offered per-tick rate the whole flat-curve window is
// aggregated analytically — zero discrete launches, analytic series in the
// result.
func TestSweepFluidAxis(t *testing.T) {
	s := NewSweep("fluid", testSweepBase()).Vary("workloads.PDM.NA.fluid", 0, 1e-3)
	res, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	discrete, fluid := res.Points[0].Res, res.Points[1].Res
	if discrete.Stats.CompletedOps == 0 {
		t.Error("disabled point completed nothing")
	}
	if discrete.Series["fluid:PDM:NA:mode"] != nil {
		t.Error("disabled point grew analytic series")
	}
	if fluid.Stats.CompletedOps != 0 {
		t.Errorf("fluid point launched %d discrete operations, want 0 (flat curve, whole window analytic)",
			fluid.Stats.CompletedOps)
	}
	s2 := fluid.Series["fluid:PDM:NA:ops"]
	if s2 == nil || s2.V[len(s2.V)-1] <= 0 {
		t.Error("fluid point recorded no analytic volume")
	}

	if err := NewSweep("bad", testSweepBase()).Vary("workloads.PDM.NA.fluid", -1).Validate(); err == nil ||
		!strings.Contains(err.Error(), "non-negative") {
		t.Errorf("negative threshold accepted: %v", err)
	}
}

// TestSweepVaryFunc covers mutator axes: arbitrary experiment edits run
// per point, composing with value axes in grid order.
func TestSweepVaryFunc(t *testing.T) {
	s := NewSweep("mut", testSweepBase()).
		VaryFunc("clients",
			Variant{Label: "slots=16", Apply: func(e *Experiment) error {
				c := e.infra.Clients["NA"]
				c.Slots = 16
				e.infra.Clients["NA"] = c
				return nil
			}},
			Variant{Label: "slots=64", Apply: func(e *Experiment) error {
				c := e.infra.Clients["NA"]
				c.Slots = 64
				e.infra.Clients["NA"] = c
				return nil
			}},
		)
	res, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	if res.Points[0].Values[0].Label != "slots=16" || res.Points[1].Values[0].Label != "slots=64" {
		t.Errorf("variant labels out of order: %+v", res.Points)
	}
	// More client slots must register more client agents.
	if a, b := res.Points[0].Res.Stats.Agents, res.Points[1].Res.Stats.Agents; a >= b {
		t.Errorf("agent counts %d vs %d: slots axis had no effect", a, b)
	}
}

// TestSweepCSV pins the export shape: header, one row per point in index
// order, axis labels and metric columns filled.
func TestSweepCSV(t *testing.T) {
	res, err := NewSweep("csv", testSweepBase()).
		Vary("dcs.NA.app.cores", 2, 4).
		Run(2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if got, want := lines[0], "point,seed,dcs.NA.app.cores,completed_ops,sim_seconds,jumps,skipped_ticks,error"; got != want {
		t.Errorf("header %q, want %q", got, want)
	}
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if fields[0] != []string{"0", "1"}[i] {
			t.Errorf("row %d: point column %q", i, fields[0])
		}
		if fields[2] != []string{"2", "4"}[i] {
			t.Errorf("row %d: axis column %q", i, fields[2])
		}
		if fields[3] == "" || fields[3] == "0" {
			t.Errorf("row %d: empty completed_ops", i)
		}
	}
}

// TestSweepSizeAndOrder checks grid expansion: row-major point order with
// the first axis varying slowest.
func TestSweepSizeAndOrder(t *testing.T) {
	s := NewSweep("order", testSweepBase()).
		Vary("dcs.NA.app.cores", 2, 4).
		Vary("workloads.PDM.NA.ops", 10, 20, 30)
	if got := s.Size(); got != 6 {
		t.Fatalf("size %d, want 6", got)
	}
	res, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range res.Points {
		got = append(got, p.Values[0].Label+"/"+p.Values[1].Label)
	}
	want := []string{"2/10", "2/20", "2/30", "4/10", "4/20", "4/30"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point order %v, want %v", got, want)
		}
	}
}

// TestSweepPointPanicIsContained: a panic in one grid point — in its axis
// mutator, or later inside the run itself — must not take the campaign down.
// The point reports a typed *PointError (reachable with errors.As through
// the joined error), and the other three points finish with exactly the
// digests of a sweep in which nothing panicked, at any worker count.
func TestSweepPointPanicIsContained(t *testing.T) {
	const bad = 2
	sweep := func(boom func(*Experiment)) *Sweep {
		var variants []Variant
		for i := 0; i < 4; i++ {
			variants = append(variants, Variant{Label: fmt.Sprintf("v%d", i), Apply: func(e *Experiment) error {
				if i == bad && boom != nil {
					boom(e)
				}
				return nil
			}})
		}
		return NewSweep("panic", testSweepBase()).VaryFunc("variant", variants...)
	}
	clean, err := sweep(nil).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, boom := range map[string]func(*Experiment){
		"mutator": func(*Experiment) { panic("bad point") },
		"execute": func(e *Experiment) {
			e.setup = append(e.setup, func(r *Run) error {
				r.Sim.AddSource(core.SourceFunc(func(*core.Simulation, float64) { panic("bad point") }))
				return nil
			})
		},
	} {
		for _, workers := range []int{1, 2} {
			res, err := sweep(boom).Run(workers)
			var pe *PointError
			if !errors.As(err, &pe) {
				t.Fatalf("%s, workers=%d: error %v, want a *PointError in the joined error", name, workers, err)
			}
			if pe.Index != bad || pe.Seed != clean.Points[bad].Seed || pe.Panic != "bad point" || len(pe.Stack) == 0 {
				t.Errorf("%s, workers=%d: PointError %+v, want index %d, seed %d, the panic value and a stack",
					name, workers, pe, bad, clean.Points[bad].Seed)
			}
			for i, p := range res.Points {
				if i == bad {
					if p.Res != nil || p.Err != error(pe) {
						t.Errorf("%s, workers=%d: the panicked point carries Res=%v Err=%v", name, workers, p.Res, p.Err)
					}
					continue
				}
				if p.Err != nil {
					t.Fatalf("%s, workers=%d: healthy point %d failed: %v", name, workers, i, p.Err)
				}
				if got, want := p.Res.Digest(), clean.Points[i].Res.Digest(); got != want {
					t.Errorf("%s, workers=%d: point %d digest moved next to a panicking point:\n%s\n%s", name, workers, i, want, got)
				}
			}
		}
	}
}

// panicAgent never goes idle, so it is stepped from the tick it registers
// on, and its every step panics.
type panicAgent struct{ core.AgentBase }

func (a *panicAgent) Step(float64) { panic("agent boom") }
func (a *panicAgent) Idle() bool   { return false }

// TestSweepEnginePanicIsContained: a panic on an engine's worker — an agent
// that H-Dispatch steps on the reference loop — reaches the point's recover
// like any other point panic. The point ends in a *PointError that wraps
// the engine's *dispatch.ShardPanic, and the other points finish.
func TestSweepEnginePanicIsContained(t *testing.T) {
	const bad = 1
	variants := make([]Variant, 3)
	for i := range variants {
		variants[i] = Variant{Label: fmt.Sprintf("v%d", i), Apply: func(e *Experiment) error {
			if i != bad {
				return nil
			}
			return WithSetup(func(r *Run) error {
				a := &panicAgent{}
				a.InitAgent(r.Sim.NextAgentID(), "boom")
				r.Sim.AddAgent(a)
				return nil
			})(e)
		}}
	}
	base := func() (*Experiment, error) {
		return New("engine-panic", testOptions(
			WithDuration(30),
			WithLoopFlags(LoopFlags{NoFastForward: true}),
			WithEngine(func() core.Engine { return dispatch.NewHDispatch(2, 0) }),
		)...)
	}
	res, err := NewSweep("engine-panic", base).VaryFunc("variant", variants...).Run(2)
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != bad {
		t.Fatalf("error %v, want a *PointError for point %d", err, bad)
	}
	var sp *dispatch.ShardPanic
	if !errors.As(pe, &sp) || sp.Value != "agent boom" {
		t.Errorf("PointError panic %#v, want a *dispatch.ShardPanic wrapping the agent's value", pe.Panic)
	}
	for i, p := range res.Points {
		if i != bad && (p.Err != nil || p.Res == nil || p.Res.Stats.Seconds < 30) {
			t.Errorf("healthy point %d did not run its 30 s: Res=%v Err=%v", i, p.Res, p.Err)
		}
	}
}

// TestSweepLeavesNoGoroutines pins that a run ends by itself: Sweep.Run, at
// one worker and at four, returns with its worker pool gone on a clean grid,
// under a factory that fails and with a point that panics, and
// Experiment.Run stops the workers of a sharded engine instance. A goroutine
// left behind keeps a caller's process alive after its work is done.
func TestSweepLeavesNoGoroutines(t *testing.T) {
	var calls atomic.Int64
	failingAfterFirst := func() (*Experiment, error) {
		if calls.Add(1) > 1 {
			return nil, errors.New("factory down")
		}
		return testSweepBase()()
	}
	boom := Variant{Label: "boom", Apply: func(*Experiment) error { panic("mutator boom") }}
	ok := Variant{Label: "ok", Apply: func(*Experiment) error { return nil }}
	grids := []struct {
		name     string
		mk       func() *Sweep
		failures bool // some points must fail
	}{
		{"clean", func() *Sweep {
			return NewSweep("clean", testSweepBase()).Vary("dcs.NA.app.cores", 2, 4).Vary("workloads.PDM.NA.ops", 20, 40)
		}, false},
		{"failing factory", func() *Sweep {
			calls.Store(0)
			return NewSweep("failing", failingAfterFirst).Vary("dcs.NA.app.cores", 2, 4).Vary("workloads.PDM.NA.ops", 20, 40)
		}, true},
		{"panicking point", func() *Sweep {
			return NewSweep("panicking", testSweepBase()).VaryFunc("variant", boom, ok).Vary("workloads.PDM.NA.ops", 20, 40)
		}, true},
	}
	for _, workers := range []int{1, 4} {
		for _, g := range grids {
			t.Run(fmt.Sprintf("%s/workers=%d", g.name, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				res, err := g.mk().Run(workers)
				if res == nil || (err != nil) != g.failures {
					t.Fatalf("result %v, error %v; points failing wanted: %v", res, err, g.failures)
				}
				requireGoroutinesGone(t, before)
			})
		}
	}
	t.Run("sharded engine", func(t *testing.T) {
		before := runtime.NumGoroutine()
		e, err := New("sharded", testOptions(WithEngine(func() core.Engine { return dispatch.NewSharded(2) }))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		requireGoroutinesGone(t, before)
	})
}

// requireGoroutinesGone waits up to a second for the goroutine count to fall
// back to want, then fails with every goroutine's stack.
func requireGoroutinesGone(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left running, %d before:\n%s", n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
