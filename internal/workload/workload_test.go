package workload

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/topology"
)

func TestCurveAtInterpolates(t *testing.T) {
	var c Curve
	c[0], c[1] = 100, 200
	if got := c.At(0); got != 100 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(1800); got != 150 {
		t.Errorf("At(30min) = %v, want 150", got)
	}
	if got := c.At(24*3600 + 1800); got != 150 {
		t.Errorf("wrap At = %v, want 150", got)
	}
}

func TestCurvePeakScaleSum(t *testing.T) {
	c := BusinessDay(1000, 13, 22, 50)
	if p := c.Peak(); p != 1000 {
		t.Errorf("Peak = %v", p)
	}
	if p := c.Scale(2).Peak(); p != 2000 {
		t.Errorf("Scale Peak = %v", p)
	}
	d := BusinessDay(500, 8, 17, 0)
	if got := c.Sum(d).At(14 * 3600); got != 1500 {
		t.Errorf("Sum overlap = %v, want 1500", got)
	}
}

func TestBusinessDayWindow(t *testing.T) {
	c := BusinessDay(1000, 13, 22, 50)
	if c.At(15*3600) != 1000 {
		t.Errorf("inside window = %v", c.At(15*3600))
	}
	if got := c.At(4 * 3600); got != 50 {
		t.Errorf("night floor = %v", got)
	}
	// Ramp shoulders sit between floor and peak.
	if v := c[12]; v <= 50 || v >= 1000 {
		t.Errorf("ramp-up shoulder = %v", v)
	}
}

func TestBusinessDayWrapsMidnight(t *testing.T) {
	aus := BusinessDay(120, 23, 8, 5)
	if aus.At(2*3600) != 120 {
		t.Errorf("AUS 02:00 GMT = %v, want peak", aus.At(2*3600))
	}
	if aus.At(15*3600) != 5 {
		t.Errorf("AUS 15:00 GMT = %v, want floor", aus.At(15*3600))
	}
}

func TestAccessMatrixValidate(t *testing.T) {
	good := SingleMaster([]string{"NA", "EU"}, "NA")
	if err := good.Validate(); err != nil {
		t.Errorf("SingleMaster invalid: %v", err)
	}
	bad := AccessMatrix{"NA": {"NA": 0.5, "EU": 0.4}}
	if err := bad.Validate(); err == nil {
		t.Error("non-stochastic row accepted")
	}
	neg := AccessMatrix{"NA": {"NA": 1.5, "EU": -0.5}}
	if err := neg.Validate(); err == nil {
		t.Error("negative entry accepted")
	}
}

func TestAccessMatrixOwnerDistribution(t *testing.T) {
	m := AccessMatrix{"AUS": {"EU": 0.3, "NA": 0.2, "AUS": 0.5}}
	rng := rand.New(rand.NewPCG(1, 2))
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[m.Owner("AUS", rng)]++
	}
	for owner, want := range map[string]float64{"EU": 0.3, "NA": 0.2, "AUS": 0.5} {
		got := float64(counts[owner]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("owner %s frequency = %v, want ~%v", owner, got, want)
		}
	}
}

func TestAccessMatrixUnknownRowPanics(t *testing.T) {
	m := SingleMaster([]string{"NA"}, "NA")
	defer func() {
		if recover() == nil {
			t.Error("unknown APM row did not panic")
		}
	}()
	m.Owner("MARS", rand.New(rand.NewPCG(1, 1)))
}

// Property: Owner always returns a DC present in the row.
func TestAccessMatrixOwnerMembership(t *testing.T) {
	m := AccessMatrix{"X": {"A": 0.6, "B": 0.25, "C": 0.15}}
	rng := rand.New(rand.NewPCG(9, 9))
	f := func(uint8) bool {
		o := m.Owner("X", rng)
		return o == "A" || o == "B" || o == "C"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// miniInfra builds a one-DC infrastructure for launcher tests.
func miniInfra(t *testing.T, seed uint64) (*core.Simulation, *topology.Infrastructure) {
	t.Helper()
	srv := topology.ServerSpec{
		CPU:     hardware.CPUSpec{Sockets: 1, Cores: 8, GHz: 2.5},
		MemGB:   32,
		NICGbps: 10,
		RAID: &hardware.RAIDSpec{
			Disks: 4, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
			CtrlGbps: 4, HitRate: 0,
		},
	}
	spec := topology.InfraSpec{
		DCs: []topology.DCSpec{
			{Name: "NA", SwitchGbps: 20, ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
				Tiers: []topology.TierSpec{
					{Name: "app", Servers: 2, Server: srv, LocalLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}},
				}},
		},
		Clients: map[string]topology.ClientSpec{
			"NA": {Slots: 64, NICGbps: 1, GHz: 2, DiskMBs: 100},
		},
	}
	sim := core.NewSimulation(core.Config{Step: 0.01, Seed: seed, CollectEvery: 100})
	inf, err := topology.Build(sim, spec)
	if err != nil {
		t.Fatal(err)
	}
	return sim, inf
}

func quickOp(name string, cycles float64) cascade.Op {
	return cascade.Seq(name,
		cascade.Msg{From: cascade.End{Role: cascade.Client},
			To:   cascade.End{Role: cascade.App, Site: cascade.SiteMaster},
			Cost: cascade.R{CPUCycles: cycles, NetBytes: 1e4}},
		cascade.Msg{From: cascade.End{Role: cascade.App, Site: cascade.SiteMaster},
			To:   cascade.End{Role: cascade.Client},
			Cost: cascade.R{CPUCycles: 1e7, NetBytes: 1e4}},
	)
}

func TestSeriesLauncherLaunchesAtInterval(t *testing.T) {
	sim, inf := miniInfra(t, 3)
	na := inf.DC("NA")
	series := Series{Name: "test", Ops: []cascade.Op{
		quickOp("OP1", 5e8), quickOp("OP2", 5e8),
	}}
	var completed int
	launcher := &SeriesLauncher{
		Series:   series,
		Interval: 5,
		Until:    19, // launches at 0, 5, 10, 15 => 4 series
		GaugeKey: "clients",
		NewBinding: func() *cascade.Binding {
			return cascade.NewBinding(inf, na, na)
		},
		OnSeriesDone: func(now float64) { completed++ },
	}
	sim.AddSource(launcher)
	sim.RunFor(15.5) // cover the launch window; series drain afterwards
	if err := sim.RunUntilIdle(60); err != nil {
		t.Fatal(err)
	}
	if completed != 4 {
		t.Errorf("series completed = %d, want 4", completed)
	}
	if n := sim.Responses.Count("OP1", "NA"); n != 4 {
		t.Errorf("OP1 completions = %d, want 4", n)
	}
	if g := sim.GaugeValue("clients"); g != 0 {
		t.Errorf("concurrent gauge after drain = %v", g)
	}
}

func TestSeriesLauncherSequencesOps(t *testing.T) {
	sim, inf := miniInfra(t, 4)
	na := inf.DC("NA")
	var order []string
	ops := []cascade.Op{quickOp("A", 2e8), quickOp("B", 2e8), quickOp("C", 2e8)}
	launcher := &SeriesLauncher{
		Series:   Series{Name: "seq", Ops: ops},
		Interval: 1000, Until: 1, // exactly one series
		NewBinding: func() *cascade.Binding { return cascade.NewBinding(inf, na, na) },
	}
	sim.AddSource(launcher)
	track := core.SourceFunc(func(s *core.Simulation, now float64) {})
	_ = track
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {}))
	if err := sim.RunUntilIdle(60); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		s := sim.Responses.Series(name, "NA")
		if s == nil || s.Len() != 1 {
			t.Fatalf("op %s did not complete exactly once", name)
		}
		order = append(order, name)
		_ = order
	}
	// Completion times must be strictly increasing A < B < C.
	ta := sim.Responses.Series("A", "NA").T[0]
	tb := sim.Responses.Series("B", "NA").T[0]
	tc := sim.Responses.Series("C", "NA").T[0]
	if !(ta < tb && tb < tc) {
		t.Errorf("series order violated: %v %v %v", ta, tb, tc)
	}
}

func TestPoissonLauncherRateTracksCurve(t *testing.T) {
	sim, inf := miniInfra(t, 5)
	users := Curve{}
	for h := 0; h < 24; h++ {
		users[h] = 360 // constant: 360 users x 10 ops/h = 1 op/s
	}
	w := &AppWorkload{
		App: "CAD", DC: "NA",
		Users:          users,
		OpsPerUserHour: 10,
		Ops:            []cascade.Op{quickOp("PING", 1e7)},
		APM:            SingleMaster([]string{"NA"}, "NA"),
		Inf:            inf,
		GaugePrefix:    "cad:NA",
	}
	sim.AddSource(w)
	sim.RunFor(120)
	n := sim.Responses.Count("CAD PING", "NA")
	// Expect ~120 completions (1/s); allow generous stochastic slack.
	if n < 80 || n > 160 {
		t.Errorf("completions = %d, want ~120", n)
	}
}

func TestPoissonLauncherMixWeights(t *testing.T) {
	sim, inf := miniInfra(t, 6)
	users := Curve{}
	for h := range users {
		users[h] = 720
	}
	w := &AppWorkload{
		App: "X", DC: "NA",
		Users:          users,
		OpsPerUserHour: 20,
		Ops:            []cascade.Op{quickOp("COMMON", 1e7), quickOp("RARE", 1e7)},
		Weights:        []float64{9, 1},
		APM:            SingleMaster([]string{"NA"}, "NA"),
		Inf:            inf,
	}
	sim.AddSource(w)
	sim.RunFor(150)
	common := sim.Responses.Count("X COMMON", "NA")
	rare := sim.Responses.Count("X RARE", "NA")
	if common == 0 || rare == 0 {
		t.Fatalf("mix starved an op: common=%d rare=%d", common, rare)
	}
	ratio := float64(common) / float64(rare)
	if ratio < 5 || ratio > 16 {
		t.Errorf("mix ratio = %.1f, want ~9", ratio)
	}
}

// TestPoissonSamplerMoments checks the sampler's first two moments with a
// fixed seed: a Poisson distribution has variance equal to its mean, on
// both sides of the sampler's normal-approximation switch at 30.
func TestPoissonSamplerMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, mean := range []float64{0.1, 1, 5, 40} {
		sum, sumSq := 0.0, 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			x := float64(poisson(rng, mean))
			sum += x
			sumSq += x * x
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("poisson(%v) empirical mean %v", mean, got)
		}
		variance := sumSq/n - got*got
		// Var of the variance estimator for Poisson is ~(mean + 2 mean^2)/n;
		// 5 sigma plus a small absolute floor for the tiny means.
		tol := 5*math.Sqrt((mean+2*mean*mean)/n) + 0.01
		if math.Abs(variance-mean) > tol {
			t.Errorf("poisson(%v) empirical variance %v, want %v +- %v", mean, variance, mean, tol)
		}
	}
}

// TestThinnedArrivalsMatchPerTickDraws is the law-preservation check for
// the exponential-gap sampler: over many simulated days of a business-day
// curve, per-hour arrival counts from thinning must agree with per-tick
// Poisson draws. Both are Poisson counts with the same per-hour mean, so
// the difference normalized by sqrt(sum) is a z-score; five sigma bounds
// it with a fixed seed.
func TestThinnedArrivalsMatchPerTickDraws(t *testing.T) {
	users := BusinessDay(800, 9, 17, 40)
	const oph, step = 2.0, 0.5
	const days = 20
	const horizon = days * 24 * 3600.0

	w := &AppWorkload{Users: users, OpsPerUserHour: oph}
	w.seed(101, 202)
	w.step = step
	w.thinBelow = math.Inf(1) // stay in the sparse regime at every rate
	var thinned [24]float64
	for w.sampleNext(0); w.pending < horizon; w.sampleNext(w.pending) {
		thinned[int(w.pending/3600)%24]++
	}

	rng := rand.New(rand.NewPCG(303, 404))
	var perTick [24]float64
	for tick := 0; float64(tick)*step < horizon; tick++ {
		now := float64(tick) * step
		if lambda := users.At(now) * oph / 3600 * step; lambda > 0 {
			perTick[int(now/3600)%24] += float64(poisson(rng, lambda))
		}
	}

	for h := 0; h < 24; h++ {
		a, b := thinned[h], perTick[h]
		if a+b == 0 {
			t.Errorf("hour %d: no arrivals in either sampler", h)
			continue
		}
		if z := (a - b) / math.Sqrt(a+b); math.Abs(z) > 5 {
			t.Errorf("hour %d: thinned %v vs per-tick %v (z=%.1f)", h, a, b, z)
		}
	}
}

// TestCurveCeiling pins the dominating-rate helper the thinned sampler
// relies on: the ceiling must bound the curve over the whole span (the
// thinning acceptance ratio must never exceed 1) and be exact for spans
// within one linear segment.
func TestCurveCeiling(t *testing.T) {
	c := BusinessDay(1000, 9, 17, 50)
	// Within one segment the curve is linear: the ceiling is the larger
	// endpoint, here inside the ramp-up hour [8, 9).
	lo, hi := 8.25*3600, 8.75*3600
	if got, want := c.Ceiling(lo, hi), math.Max(c.At(lo), c.At(hi)); got != want {
		t.Errorf("segment ceiling = %v, want %v", got, want)
	}
	// Spanning the business window must see the plateau.
	if got := c.Ceiling(7*3600, 12*3600); got != 1000 {
		t.Errorf("window ceiling = %v, want 1000", got)
	}
	// A day or longer sees the whole curve.
	if got := c.Ceiling(0, 48*3600); got != c.Peak() {
		t.Errorf("two-day ceiling = %v, want peak %v", got, c.Peak())
	}
	// Degenerate span falls back to the point value.
	if got := c.Ceiling(10*3600, 9*3600); got != c.At(10*3600) {
		t.Errorf("inverted span ceiling = %v, want %v", got, c.At(10*3600))
	}
	// Domination property across random spans.
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 200; i++ {
		t0 := rng.Float64() * 24 * 3600
		t1 := t0 + rng.Float64()*6*3600
		ceil := c.Ceiling(t0, t1)
		for j := 0; j <= 20; j++ {
			x := t0 + (t1-t0)*float64(j)/20
			if v := c.At(x); v > ceil+1e-9 {
				t.Fatalf("Ceiling(%v, %v) = %v < At(%v) = %v", t0, t1, ceil, x, v)
			}
		}
	}
}

// TestCurveNextPositiveBoundaries covers the piecewise boundaries the
// original test table skirts: instants exactly on hour points, a curve
// positive at a single hour point (both adjacent segments ramp), and the
// midnight wrap out of a trailing zero stretch.
func TestCurveNextPositiveBoundaries(t *testing.T) {
	var spike Curve
	spike[10] = 5 // positive only at the 10:00 hour point
	cases := []struct {
		name string
		t    float64
		want float64
	}{
		// Inside [9,10) the segment ramps toward c[10]>0: positive
		// immediately after t, so NextPositive must not skip.
		{"ramp-into-spike", 9.5 * 3600, 9.5 * 3600},
		{"exactly-at-segment-start", 9 * 3600, 9 * 3600},
		{"exactly-at-spike", 10 * 3600, 10 * 3600},
		// Inside [10,11) the segment ramps down from the spike: still
		// positive until the 11:00 point.
		{"ramp-out-of-spike", 10.5 * 3600, 10.5 * 3600},
		// At exactly 11:00 the curve is zero and stays zero until the
		// ramp-in segment starts next day at 9:00.
		{"exactly-at-zero-start", 11 * 3600, (24 + 9) * 3600},
		{"deep-zero-wraps", 20 * 3600, (24 + 9) * 3600},
		{"second-day", (24 + 11) * 3600, (48 + 9) * 3600},
	}
	for _, tc := range cases {
		if got := spike.NextPositive(tc.t); got != tc.want {
			t.Errorf("%s: NextPositive(%v) = %v, want %v", tc.name, tc.t, got, tc.want)
		}
	}
	// Contract sweep on a fine grid: the curve is zero at every instant
	// strictly before the returned time.
	for x := 0.0; x < 48*3600; x += 97 {
		np := spike.NextPositive(x)
		for probe := x; probe < np && probe < x+12*3600; probe += 61 {
			if spike.At(probe) != 0 {
				t.Fatalf("NextPositive(%v) = %v but curve positive at %v", x, np, probe)
			}
		}
	}
}

// TestCurveNextPositive pins the fast-forward scheduling contract: the
// curve is guaranteed zero at every instant strictly before the returned
// time.
func TestCurveNextPositive(t *testing.T) {
	var zero Curve
	if got := zero.NextPositive(12345); !math.IsInf(got, 1) {
		t.Errorf("all-zero curve: NextPositive = %v, want +Inf", got)
	}
	// Business window 9-17 with a hard-zero night.
	var c Curve
	for h := 9; h < 17; h++ {
		c[h] = 100
	}
	cases := []struct {
		name string
		t    float64
		want float64
	}{
		{"inside-window", 10 * 3600, 10 * 3600},
		{"segment-before-window", 8.5 * 3600, 8.5 * 3600}, // c[9]>0: ramps up within [8,9)
		{"deep-night", 2 * 3600, 8 * 3600},
		{"after-window-wraps", 20 * 3600, (24 + 8) * 3600},
		{"next-day", (24 + 2) * 3600, (24 + 8) * 3600},
	}
	for _, tc := range cases {
		if got := c.NextPositive(tc.t); got != tc.want {
			t.Errorf("%s: NextPositive(%v) = %v, want %v", tc.name, tc.t, got, tc.want)
		}
		// Contract check: zero everywhere strictly before the returned time.
		got := c.NextPositive(tc.t)
		if math.IsInf(got, 1) {
			continue
		}
		for x := tc.t; x < got; x += 300 {
			if c.At(x) != 0 {
				t.Errorf("%s: curve positive at %v, before NextPositive=%v", tc.name, x, got)
				break
			}
		}
	}
}

// TestSeriesLauncherNextPoll checks the launcher reports its schedule:
// the next launch while armed, +Inf once exhausted.
func TestSeriesLauncherNextPoll(t *testing.T) {
	sim, inf := miniInfra(t, 1)
	na := inf.DC("NA")
	l := &SeriesLauncher{
		Series:     Series{Name: "s", Ops: []cascade.Op{quickOp("OP1", 5e8)}},
		Interval:   30,
		FirstAt:    5,
		Until:      40,
		NewBinding: func() *cascade.Binding { return cascade.NewBinding(inf, na, na) },
	}
	if got := l.NextPoll(0); got != 0 {
		t.Errorf("uninitialized NextPoll(0) = %v, want 0 (poll every tick)", got)
	}
	l.Poll(sim, 0)
	if got := l.NextPoll(0); got != 5 {
		t.Errorf("NextPoll before first launch = %v, want 5", got)
	}
	l.Poll(sim, 5)
	if got := l.NextPoll(5); got != 35 {
		t.Errorf("NextPoll after first launch = %v, want 35", got)
	}
	l.Poll(sim, 35)
	if got := l.NextPoll(35); !math.IsInf(got, 1) {
		t.Errorf("NextPoll after Until = %v, want +Inf", got)
	}
}

// The owner row a launcher prepares once draws exactly what
// AccessMatrix.Owner draws: same owner for the same RNG state, one draw
// each, including the row's rounding tail (a draw past the accumulated sum
// falls to the last owner).
func TestPreparedOwnerRowMatchesOwner(t *testing.T) {
	_, inf := miniInfra(t, 1)
	apm := AccessMatrix{"NA": {"NA": 0.3, "EU": 0.1, "AS1": 0.35, "AFR": 0.25 - 1e-7}}
	if err := apm.Validate(); err != nil {
		t.Fatal(err)
	}
	row := apm.owners(nil, "NA", inf)
	if len(row) != 4 || row[3].dc != inf.DC("NA") || row[0].dc != nil {
		t.Fatalf("prepared row %+v: want four owners in name order, NA resolved, the rest unknown", row)
	}
	a, b := rand.New(rand.NewPCG(9, 9)), rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 20000; i++ {
		if want, got := apm.Owner("NA", a), drawOwner(row, b).name; got != want {
			t.Fatalf("draw %d: prepared row gave %s, Owner %s", i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Error("the two draw sequences consumed different amounts of randomness")
	}
	if apm.owners(nil, "EU", inf) != nil {
		t.Error("a missing row prepared to something")
	}
}

// TestCurveIntegral: the integral of the piecewise-linear curve over any
// span — inside an hour, across hour points, across midnight — is the sum
// of its trapezoids, which a fine midpoint sum approaches.
func TestCurveIntegral(t *testing.T) {
	c := BusinessDay(1000, 13, 22, 50)
	for _, span := range [][2]float64{{0, 900}, {100, 250}, {3000, 11000}, {12 * 3600, 15*3600 + 17}, {23 * 3600, 26 * 3600}, {0, 24 * 3600}, {5, 5}} {
		const n = 200000
		h := (span[1] - span[0]) / n
		sum := 0.0
		for i := range n {
			sum += c.At(span[0]+(float64(i)+0.5)*h) * h
		}
		if got := c.Integral(span[0], span[1]); math.Abs(got-sum) > 1e-6*math.Max(1, sum) {
			t.Errorf("Integral(%v, %v) = %v, midpoint sum %v", span[0], span[1], got, sum)
		}
	}
	var flat Curve
	for h := range flat {
		flat[h] = 20
	}
	if got := flat.Integral(0, 900); got != 20*900 {
		t.Errorf("a flat curve of 20 over 900 s integrates to %v", got)
	}
}

// TestAppendExpectedSizesTheMix: a workload states one population per
// operation, keyed as its completions record, with room for its share of
// the expected launches plus two standard deviations; a run records each
// within it.
func TestAppendExpectedSizesTheMix(t *testing.T) {
	sim, inf := miniInfra(t, 6)
	users := Curve{}
	for h := range users {
		users[h] = 720
	}
	w := &AppWorkload{
		App: "X", DC: "NA",
		Users:          users,
		OpsPerUserHour: 20,
		Ops:            []cascade.Op{quickOp("COMMON", 1e7), quickOp("RARE", 1e7)},
		Weights:        []float64{9, 1},
		APM:            SingleMaster([]string{"NA"}, "NA"),
		Inf:            inf,
	}
	launches := w.ExpectedLaunches(0, 150)
	if launches != 600 {
		t.Fatalf("expected launches %v, want 720 users × 20/h × 150 s = 600", launches)
	}
	exp := w.AppendExpected(nil, launches)
	want := []metrics.Expected{
		{Key: metrics.ResponseKey{Op: "X COMMON", DC: "NA"}, Samples: int(math.Ceil(540 + 2*math.Sqrt(540)))},
		{Key: metrics.ResponseKey{Op: "X RARE", DC: "NA"}, Samples: int(math.Ceil(60 + 2*math.Sqrt(60)))},
	}
	if !reflect.DeepEqual(exp, want) {
		t.Fatalf("expected populations %v, want %v", exp, want)
	}
	sim.Responses.Expect(exp)
	sim.AddSource(w)
	sim.RunFor(150)
	for _, e := range want {
		s := sim.Responses.Series(e.Key.Op, e.Key.DC)
		if s == nil || s.Len() > e.Samples || cap(s.T) != e.Samples {
			t.Errorf("%v: recorded into room for %d, expected %d", e.Key, cap(s.T), e.Samples)
		}
	}
}
