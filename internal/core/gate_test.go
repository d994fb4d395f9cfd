package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/queueing"
)

// The engine-matrix tests of the core. Their names and subtest matrices
// date from the sharded span runtime, whose grain gate, shard lanes and
// stretch switches they varied; that runtime is gone, and the same matrices
// now vary what remains of it:
//
//   - sharded-N is a chunkRunner of N workers;
//   - the fork setting is the runner's grain: always-parallel forks every
//     sweep, default forks sweeps of at least N agents (dispatch.Sharded's
//     rule), always-inline forks none;
//   - the loop leg is how the platform runs: default (or stretched) is the
//     production loop in one RunFor call, nostretch the reference loop —
//     the one that sweeps through the engine, every tick — and nocross the
//     production loop in short RunFor slices, so no window may cross a
//     call's end.
var gateSettings = []struct {
	name  string
	grain func(workers int) int
}{
	{"always-parallel", func(int) int { return 0 }},
	{"default", func(n int) int { return n }},
	{"always-inline", func(int) int { return math.MaxInt }},
}

// loopLeg is one way of running a platform: the loop, and how its RunFor
// is issued.
type loopLeg struct {
	name  string
	ref   bool
	drive func(*Simulation, float64)
}

var loopLegs = []loopLeg{
	{"default", false, (*Simulation).RunFor},
	{"nostretch", true, (*Simulation).RunFor},
	{"nocross", false, runSliced},
}

// runSliced is RunFor(seconds) issued as consecutive RunFor calls of 37
// ticks, the last one shorter: the agents the production loop left lazy
// must be caught up exactly where each call ends.
func runSliced(s *Simulation, seconds float64) {
	end := s.clock.Now() + s.clock.TicksIn(seconds)
	for s.clock.Now() < end && s.err == nil {
		s.RunFor(float64(min(37, end-s.clock.Now())) * s.clock.Step())
	}
}

// chunkRunner is countingEngine sweeping in parallel — dispatch.Sharded's
// chunked Sweep, in package so core tests need not import dispatch (which
// imports core): a sweep of at least grain agents is split into n
// contiguous blocks, one goroutine each; a smaller one runs on the caller.
type chunkRunner struct {
	countingEngine
	n, grain, forks int
}

func (e *chunkRunner) Sweep(active []Agent, fn func(Agent)) {
	if len(active) < e.grain {
		e.countingEngine.Sweep(active, fn)
		return
	}
	e.sweeps++
	e.forks++
	var wg sync.WaitGroup
	for w := 0; w < e.n; w++ {
		wg.Add(1)
		go func(block []Agent) {
			defer wg.Done()
			for _, a := range block {
				fn(a)
			}
		}(active[w*len(active)/e.n : (w+1)*len(active)/e.n])
	}
	wg.Wait()
}

// checkEngineUse pins what a run may ask of its runner: nothing on the
// production loop, a sweep every tick on the reference loop, forked exactly
// as the grain says.
func checkEngineUse(t *testing.T, e *chunkRunner, ref bool) {
	t.Helper()
	switch {
	case !ref && (e.binds != 0 || e.sweeps != 0):
		t.Errorf("production loop called Bind %d and Sweep %d times, want 0", e.binds, e.sweeps)
	case ref && e.sweeps == 0:
		t.Error("reference loop never swept through the engine")
	case e.grain == 0 && e.forks != e.sweeps:
		t.Errorf("%d of %d sweeps forked at grain 0, want all", e.forks, e.sweeps)
	case e.grain == math.MaxInt && e.forks != 0:
		t.Errorf("%d sweeps forked at an infinite grain, want none", e.forks)
	}
}

// TestGateCannotChangeResult is the engine determinism contract on
// generated platforms — the fuzz corpus' and the lane platform's: no worker
// count, fork setting or loop leg may move a bit against the sequential
// reference loop.
func TestGateCannotChangeResult(t *testing.T) {
	type platform struct {
		name string
		run  func(cfg Config, drive func(*Simulation, float64)) *Simulation
	}
	platforms := []platform{{"lanes", func(cfg Config, drive func(*Simulation, float64)) *Simulation {
		s, _ := lanePlatform(cfg, drive)
		return s
	}}}
	for _, seed := range calendarPropertySeeds {
		data := binary.LittleEndian.AppendUint64(nil, seed)
		platforms = append(platforms, platform{fmt.Sprintf("fuzz-%d", seed), func(cfg Config, drive func(*Simulation, float64)) *Simulation {
			return fuzzPlatformRun(data, cfg, drive)
		}})
	}
	for _, p := range platforms {
		ref := p.run(Config{LoopFlags: refFlags(true)}, (*Simulation).RunFor)
		if ref.CompletedOps() == 0 {
			t.Fatalf("%s: the reference run completed nothing", p.name)
		}
		for _, n := range []int{1, 2, 4, 8} {
			for _, leg := range loopLegs {
				for _, g := range gateSettings {
					t.Run(fmt.Sprintf("%s/sharded-%d/%s/%s", p.name, n, leg.name, g.name), func(t *testing.T) {
						eng := &chunkRunner{n: n, grain: g.grain(n)}
						got := p.run(Config{Engine: eng, LoopFlags: refFlags(leg.ref)}, leg.drive)
						sameRun(t, ref, got)
						checkEngineUse(t, eng, leg.ref)
					})
				}
			}
		}
	}
}

// TestGateInlineKeepsAuditContract pins the run counters the benchmark
// harness still reads from the removed span runtime — Barriers,
// WindowsStretched, MailboxApplied — at their documented constant 0 on both
// loops under every fork setting, and the runner's calls to what each loop
// may ask, down to the one Shutdown.
func TestGateInlineKeepsAuditContract(t *testing.T) {
	for _, ref := range []bool{false, true} {
		for _, g := range gateSettings {
			eng := &chunkRunner{n: 2, grain: g.grain(2)}
			s, _ := lanePlatform(Config{Engine: eng, LoopFlags: refFlags(ref)}, (*Simulation).RunFor)
			if st := s.Stats(); st.Barriers != 0 || st.WindowsStretched != 0 || st.MailboxApplied != 0 {
				t.Errorf("reference=%v, %s: %d barriers, %d stretched windows, %d mailbox entries; want none",
					ref, g.name, st.Barriers, st.WindowsStretched, st.MailboxApplied)
			}
			checkEngineUse(t, eng, ref)
			if eng.shutdowns != 1 {
				t.Errorf("reference=%v, %s: Shutdown called %d times, want 1", ref, g.name, eng.shutdowns)
			}
		}
	}
}

// TestGateCountersReproducible: the window loop reads integers, never a
// clock, so two runs of one seed must agree on every run counter exactly —
// jumps and skipped ticks included — whatever engine each carries. The
// dense ring has an event every tick; the lane platform jumps between
// polls.
func TestGateCountersReproducible(t *testing.T) {
	dense := func(eng Engine) RunStats {
		return denseRing(Config{Engine: eng}, 2, 200, rand.New(rand.NewPCG(3, 4)), 4).Stats()
	}
	lanes := func(eng Engine) RunStats {
		s, _ := lanePlatform(Config{Engine: eng}, (*Simulation).RunFor)
		return s.Stats()
	}
	for name, run := range map[string]func(Engine) RunStats{"dense": dense, "lanes": lanes} {
		a, b := run(&chunkRunner{n: 2, grain: 2}), run(nil)
		if a != b {
			t.Errorf("%s: run counters differ between two runs of one seed:\n%+v\n%+v", name, a, b)
		}
		if a.CompletedOps == 0 {
			t.Errorf("%s: no operation completed", name)
		}
	}
	if st := lanes(nil); st.Jumps == 0 || st.SkippedTicks == 0 {
		t.Errorf("lane platform took %d jumps over %d ticks; the jump counters were not exercised", st.Jumps, st.SkippedTicks)
	}
}

// TestGateDensePlatformStillForks keeps the parallel sweep honest in the
// other direction: on a dense platform — ~800 busy agents over two data
// centers — the reference loop must fork its sweeps onto the runner's
// workers at the default grain and still reproduce the sequential reference,
// as must the production loop, which never asks. A runner that never forks
// would pass every other test.
func TestGateDensePlatformStillForks(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }
	ref := denseRing(Config{LoopFlags: refFlags(true)}, 2, 400, rng(), 2)
	if ref.CompletedOps() == 0 {
		t.Fatal("the reference run completed nothing")
	}
	eng := &chunkRunner{n: 2, grain: 2}
	got := denseRing(Config{Engine: eng, LoopFlags: refFlags(true)}, 2, 400, rng(), 2)
	if got.ActiveAgents() < 512 {
		t.Fatalf("only %d agents busy, want >= 512", got.ActiveAgents())
	}
	if eng.forks == 0 {
		t.Errorf("%d sweeps on a dense platform, none forked", eng.sweeps)
	}
	sameRun(t, ref, got)
	prod := &chunkRunner{n: 2, grain: 2}
	sameRun(t, ref, denseRing(Config{Engine: prod}, 2, 400, rng(), 2))
	checkEngineUse(t, prod, false)
}

// denseSource keeps one operation per agent of its data center in flight:
// a long chain of stages walking the DC's agents ring-wise, each stage
// 0.3–2.3 ticks of service drawn from the source's own stream, relaunched
// when one retires.
type denseSource struct {
	dc       string
	agents   []*hzAgent
	rng      *rand.Rand
	inflight int
	launched int
}

const denseHops = 64

func (d *denseSource) Poll(s *Simulation, now float64) {
	for ; d.inflight < len(d.agents); d.inflight++ {
		stages := make([]Stage, denseHops)
		for h := range stages {
			a := d.agents[(d.launched+h)%len(d.agents)]
			stages[h] = Stage{Queue: a, Demand: (0.3 + 2*d.rng.Float64()) * a.q.Rate() * s.clock.Step()}
		}
		d.launched++
		plans := []MessagePlan{{Stages: stages}}
		s.StartOp(OpRun{Name: "ring", DC: d.dc, NumSteps: 1,
			Expand: func(int) []MessagePlan { return plans },
			Retire: func() { d.inflight-- }})
	}
}

func (d *denseSource) NextPoll(now float64) float64 { return now }

// denseRing builds dcs data centers of per agents each, every agent kept
// busy by its DC's denseSource (seeded from rng), and runs it for the given
// simulated seconds.
func denseRing(cfg Config, dcs, per int, rng *rand.Rand, seconds float64) *Simulation {
	cfg.Step, cfg.Seed, cfg.CollectEvery = 0.01, 1, 100
	s := NewSimulation(cfg)
	srcs := make([]*denseSource, dcs)
	for d := range srcs {
		src := &denseSource{dc: fmt.Sprintf("DC%d", d), rng: rand.New(rand.NewPCG(rng.Uint64(), uint64(d)))}
		for i := 0; i < per; i++ {
			src.agents = append(src.agents, newHzAgent(s, fmt.Sprintf("%s-%d", src.dc, i), 100))
		}
		srcs[d] = src
	}
	for _, src := range srcs {
		s.AddSource(src)
	}
	s.RunFor(seconds)
	s.Shutdown()
	return s
}

// wanTraffic launches cross-DC round trips: serve at the near DC, cross
// the WAN, serve at the far DC, cross back, finish at home.
type wanTraffic struct {
	near, far []*hzAgent
	out, back *hzAgent
	rng       *rand.Rand
	next      float64
}

func (wt *wanTraffic) Poll(s *Simulation, now float64) {
	if now < wt.next {
		return
	}
	dt := s.clock.Step()
	stage := func(a *hzAgent, lo, span float64) Stage {
		return Stage{Queue: a, Demand: (lo + span*wt.rng.Float64()) * a.q.Rate() * dt}
	}
	cpu := func(dc []*hzAgent) Stage { return stage(dc[wt.rng.IntN(len(dc))], 0.5, 4) }
	plans := []MessagePlan{{Stages: []Stage{cpu(wt.near), stage(wt.out, 0.2, 3), cpu(wt.far), stage(wt.back, 0.2, 3), cpu(wt.near)}}}
	s.StartOp(OpRun{Name: "X", DC: "A", NumSteps: 1, Expand: func(int) []MessagePlan { return plans }})
	wt.next = now + float64(15+wt.rng.IntN(50))*dt
}

func (wt *wanTraffic) NextPoll(float64) float64 { return wt.next }

// TestShardMidSpanDeliveryUnderForcedGate is the WAN-latency property on a
// platform small enough to read: two data centers of three agents joined by
// 50 ms latencied processor-sharing links, per-DC random traffic in each
// plus a source of cross-DC round trips. Every hop across a link must finish
// its latency countdown on the reference loop's tick — with the production
// loop run in one call (stretched) or in slices (nocross), and with the
// reference loop sweeping through a runner that forks every tick
// (nostretch).
func TestShardMidSpanDeliveryUnderForcedGate(t *testing.T) {
	run := func(cfg Config, drive func(*Simulation, float64)) *Simulation {
		cfg.Step, cfg.Seed, cfg.CollectEvery = 0.01, 5, 200
		s := NewSimulation(cfg)
		var dcs [2][]*hzAgent
		var local []*laneTraffic
		for d, dc := range []string{"A", "B"} {
			lt := &laneTraffic{dc: dc, rng: rand.New(rand.NewPCG(5, uint64(d)))}
			for i := 0; i < 3; i++ {
				lt.agents = append(lt.agents, newHzAgent(s, fmt.Sprintf("%s-%d", dc, i), 100*float64(i+1)))
			}
			dcs[d], local = lt.agents, append(local, lt)
		}
		wt := &wanTraffic{near: dcs[0], far: dcs[1], rng: rand.New(rand.NewPCG(5, 9)),
			out:  newHzAgentOn(s, "A>B", queueing.NewPS(1e4, 64, 0.05)),
			back: newHzAgentOn(s, "B>A", queueing.NewPS(1e4, 64, 0.05))}
		for _, lt := range local {
			s.AddSource(lt)
		}
		s.AddSource(wt)
		drive(s, 40)
		s.Shutdown()
		return s
	}
	ref := run(Config{LoopFlags: refFlags(true)}, (*Simulation).RunFor)
	if ref.Responses.Series("X", "A").Len() == 0 {
		t.Fatal("no cross-DC round trip completed on the reference loop")
	}
	for _, leg := range []loopLeg{
		{"stretched", false, (*Simulation).RunFor},
		{"nostretch", true, (*Simulation).RunFor},
		{"nocross", false, runSliced},
	} {
		t.Run(leg.name, func(t *testing.T) {
			eng := &chunkRunner{n: 2}
			sameRun(t, ref, run(Config{Engine: eng, LoopFlags: refFlags(leg.ref)}, leg.drive))
			checkEngineUse(t, eng, leg.ref)
		})
	}
}
