package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/topology"
)

// DefaultThinBelow is the per-tick expected-arrival threshold under which
// AppWorkload trades per-tick Poisson draws for sampled inter-arrival gaps:
// below 0.1 expected arrivals per tick, at least ~10 of every 11 polls draw
// zero and exist only to consume randomness, so sampling the gap directly
// is both cheaper and lets the time loop fast-forward to the next arrival.
const DefaultThinBelow = 0.1

// AppWorkload drives one software application at one data center with an
// open Poisson arrival process: the launch rate at time t is
//
//	Users.At(t) x OpsPerUserHour / 3600
//
// and each launch draws an operation from the mix. The master data center
// for each operation — the owner of the manipulated file — is sampled from
// the Access Pattern Matrix, which reduces to "always the MDC" in the
// consolidated platform of Chapter 6.
type AppWorkload struct {
	App            string
	DC             string
	Users          Curve
	OpsPerUserHour float64
	Ops            []cascade.Op
	Weights        []float64 // nil selects a uniform mix
	APM            AccessMatrix
	Inf            *topology.Infrastructure
	// GaugePrefix, when set, maintains gauges "<prefix>:active" (operations
	// in flight) and "<prefix>:loggedin" (population curve sample). The
	// loggedin gauge is refreshed on due polls only; under thinning those
	// are the arrival instants, so probes wanting the exact population
	// between arrivals should sample Users.At directly.
	GaugePrefix string
	// ThinBelow overrides the per-tick expected-arrival threshold below
	// which arrivals are sampled by exponential-gap thinning instead of
	// per-tick Poisson draws. 0 selects DefaultThinBelow; a negative value
	// disables thinning for this workload. Thinning preserves the arrival
	// law (same nonhomogeneous Poisson process) but draws the RNG in a
	// different order than per-tick draws, so the two modes are
	// distribution-identical, not bit-identical. Either mode is
	// bit-identical across the production and reference loops.
	ThinBelow float64
	// Stream identifies this workload's RNG stream. The workload's arrival
	// randomness is seeded with core.DeriveSeed(simulation seed, Stream), so
	// its draws depend only on the simulation seed and its own identity —
	// never on how many draws other workloads made, which is what used to
	// happen when sub-RNGs were seeded by consuming the shared simulation
	// stream (adding one workload perturbed every later workload's
	// arrivals). 0 derives the stream from an FNV-1a hash of "App@DC";
	// set it explicitly when two workloads share that identity.
	Stream uint64

	cum      []float64
	names    []string // "<App> <op name>" per operation of the mix
	local    *topology.DataCenter
	owners   []owner // the APM row of DC, in Owner's draw order
	scratch  cascade.Scratch
	rng      *rand.Rand
	active   core.Gauge // interned "<prefix>:active"
	loggedin core.Gauge // interned "<prefix>:loggedin"

	step      float64 // tick size, cached at initialize
	thinBelow float64 // resolved threshold (0 when thinning disabled)
	pending   float64 // next committed arrival instant; NaN in per-tick mode
}

// EffectiveStream resolves a workload's RNG stream identity: the explicit
// stream when non-zero, otherwise an FNV-1a hash of "app@dc". Callers that
// must detect stream collisions (the experiment assembly validation)
// compare effective streams, not raw Stream fields — an explicit Stream
// equal to another workload's derived hash collides all the same.
func EffectiveStream(app, dc string, stream uint64) uint64 {
	if stream != 0 {
		return stream
	}
	h := fnv.New64a()
	h.Write([]byte(app))
	h.Write([]byte{'@'})
	h.Write([]byte(dc))
	return h.Sum64()
}

// init prepares the cumulative mix distribution.
func (w *AppWorkload) initialize(s *core.Simulation) {
	if len(w.Ops) == 0 {
		panic(fmt.Sprintf("workload: app %s at %s has no operations", w.App, w.DC))
	}
	if w.Weights != nil && len(w.Weights) != len(w.Ops) {
		panic(fmt.Sprintf("workload: app %s has %d weights for %d ops", w.App, len(w.Weights), len(w.Ops)))
	}
	if err := w.APM.Validate(); err != nil {
		panic(err)
	}
	w.cum = make([]float64, len(w.Ops))
	w.names = make([]string, len(w.Ops))
	total := 0.0
	for i := range w.Ops {
		w.names[i] = w.App + " " + w.Ops[i].Name
		wgt := 1.0
		if w.Weights != nil {
			wgt = w.Weights[i]
		}
		total += wgt
		w.cum[i] = total
	}
	for i := range w.cum {
		w.cum[i] /= total
	}
	w.local = w.Inf.DC(w.DC)
	w.owners = w.APM.owners(w.DC, w.Inf)
	// Derive an independent deterministic stream from the simulation seed
	// and this workload's identity, so multiple workloads stay decoupled
	// and adding or removing one never perturbs another's draws.
	stream := EffectiveStream(w.App, w.DC, w.Stream)
	// The second PCG word chains through the first, so adjacent explicit
	// streams never share a word.
	seed1 := core.DeriveSeed(s.Seed(), stream)
	w.rng = rand.New(rand.NewPCG(seed1, core.DeriveSeed(seed1, stream)))
	if w.GaugePrefix != "" {
		w.active = s.GaugeHandle(w.GaugePrefix + ":active")
		w.loggedin = s.GaugeHandle(w.GaugePrefix + ":loggedin")
	}
	w.step = s.Clock().Step()
	w.pending = math.NaN()
	if w.ThinBelow >= 0 {
		w.thinBelow = w.ThinBelow
		if w.thinBelow == 0 {
			w.thinBelow = DefaultThinBelow
		}
	}
}

// Poll launches the tick's arrivals. In the dense regime (expected
// arrivals per tick at or above the thinning threshold) it draws a Poisson
// count per tick; in the sparse regime it launches the committed thinned
// arrivals that have come due and samples their successors, so quiet
// stretches need no polls at all.
func (w *AppWorkload) Poll(s *core.Simulation, now float64) {
	if w.rng == nil {
		w.initialize(s)
	}
	users := w.Users.At(now)
	s.AddGaugeBy(w.loggedin, users-s.GaugeValueBy(w.loggedin))
	if !math.IsNaN(w.pending) {
		// Thinned mode: every committed arrival at or before now launches,
		// each successor sampled from its predecessor's instant so the
		// arrival process is covered continuously.
		for w.pending <= now {
			at := w.pending
			w.launch(s)
			if w.Users.At(at)*w.OpsPerUserHour/3600*w.step >= w.thinBelow {
				// The rate climbed back into the dense regime: resume
				// per-tick draws from the next poll.
				w.pending = math.NaN()
				return
			}
			w.sampleNext(at)
		}
		return
	}
	lambda := users * w.OpsPerUserHour / 3600 * w.step
	if lambda <= 0 {
		return
	}
	if w.thinBelow > 0 && lambda < w.thinBelow {
		// Sparse regime: hand over to the gap sampler from this instant;
		// the per-tick draw is subsumed by the sampled gap.
		w.sampleNext(now)
		return
	}
	n := poisson(w.rng, lambda)
	for i := 0; i < n; i++ {
		w.launch(s)
	}
}

// sampleNext samples the next arrival instant strictly after from by
// exponential-gap thinning (Lewis & Shedler): candidate points arrive at
// the curve's ceiling rate over a lookahead window bounded by the next hour
// point — the curve is linear inside it, so the ceiling is exact and tight
// — and each candidate is accepted with probability rate(t)/ceiling, which
// reproduces the nonhomogeneous Poisson law exactly. A candidate past the
// window restarts at the boundary (the exponential's memorylessness makes
// the restart exact); hard-zero stretches are skipped via NextPositive, and
// an all-zero curve parks the workload at +Inf.
func (w *AppWorkload) sampleNext(from float64) {
	perUser := w.OpsPerUserHour / 3600
	t := from
	for {
		if next := w.Users.NextPositive(t); next > t {
			if math.IsInf(next, 1) {
				w.pending = next
				return
			}
			t = next
		}
		winEnd := math.Floor(t/3600)*3600 + 3600
		ceil := w.Users.Ceiling(t, winEnd) * perUser
		if ceil <= 0 {
			t = winEnd
			continue
		}
		t += w.rng.ExpFloat64() / ceil
		if t >= winEnd {
			t = winEnd
			continue
		}
		if w.rng.Float64()*ceil < w.Users.At(t)*perUser {
			w.pending = t
			return
		}
	}
}

// ResetPending discards any committed thinned arrival, returning the
// workload to per-tick mode from its next poll (which re-enters gap
// sampling from the poll instant when the rate is sparse). The fluid tier
// calls it when a workload re-crosses from analytic back to discrete
// sampling: a pending instant committed before the fluid window would
// otherwise replay a stale arrival. No RNG draws are made.
func (w *AppWorkload) ResetPending() {
	if w.rng != nil {
		w.pending = math.NaN()
	}
}

// NextPoll reports the workload's real schedule. Per-tick (dense) mode
// polls every tick while the population curve is positive and skips
// hard-zero stretches via NextPositive; thinned (sparse) mode reports the
// committed arrival instant, so a 5% night floor no longer pins the loop
// to tick-by-tick stepping — the classic quiet-hour veto this sampler
// removes.
func (w *AppWorkload) NextPoll(now float64) float64 {
	if w.rng == nil {
		return now
	}
	if !math.IsNaN(w.pending) {
		return w.pending
	}
	if w.Users.At(now) > 0 {
		return now
	}
	return w.Users.NextPositive(now)
}

func (w *AppWorkload) launch(s *core.Simulation) {
	i := w.pickOp()
	if len(w.owners) == 0 {
		panic(fmt.Sprintf("workload: APM has no row for %s", w.DC))
	}
	o := drawOwner(w.owners, w.rng)
	if o.dc == nil {
		w.Inf.DC(o.name) // panics: the owner names no data center
	}
	b := w.scratch.NewBinding(w.Inf, w.local, o.dc)
	run, err := w.scratch.Instantiate(w.Ops[i], b)
	if err != nil {
		panic(err)
	}
	run.Name = w.names[i]
	run.Gauge = w.active
	s.StartOp(run)
}

// pickOp samples the operation mix: the first cumulative weight exceeding
// the draw, by binary search — consolidation scenarios can carry large
// mixes, and the search is bit-identical to the linear scan it replaced.
func (w *AppWorkload) pickOp() int {
	u := w.rng.Float64()
	if i := sort.Search(len(w.cum), func(i int) bool { return w.cum[i] > u }); i < len(w.cum) {
		return i
	}
	return len(w.cum) - 1
}

// poisson draws from Poisson(mean) — Knuth's method for the small means a
// tick produces, with a normal approximation above 30 to bound the loop.
func poisson(rng *rand.Rand, mean float64) int {
	if mean > 30 {
		n := int(mean + math.Sqrt(mean)*rng.NormFloat64() + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

var _ core.Source = (*AppWorkload)(nil)
