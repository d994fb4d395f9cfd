package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/queueing"
)

// The three settings of the grain gate the tests drive: every admissible
// span forked (the span scheduler before the gate), the production constant,
// and nothing ever forked.
var gateSettings = []struct {
	name  string
	grain int
}{
	{"always-parallel", 0},
	{"default", shardGrain},
	{"always-inline", math.MaxInt},
}

// countingRunner is spanTestRunner counting its barriers.
type countingRunner struct {
	spanTestRunner
	calls int
}

func (e *countingRunner) RunShards(fn func(shard int)) {
	e.calls++
	e.spanTestRunner.RunShards(fn)
}

// TestGateCannotChangeResult is the gate's safety net: shard ownership only
// ever decides which goroutine runs an agent's arithmetic, so no setting of
// the gate, at any shard count, under any stretch flag, may move a bit
// against the reference loop. It runs on generated platforms — the fuzz
// corpus' (global cascades hopping between shards, spans in the gaps between
// them) and the lane platform's (lane-confined traffic, nearly every window
// inside a span).
func TestGateCannotChangeResult(t *testing.T) {
	flagSets := []struct {
		name  string
		flags LoopFlags
	}{
		{"default", LoopFlags{}},
		{"nostretch", LoopFlags{NoStretch: true}},
		{"nocross", LoopFlags{NoCrossStretch: true}},
	}
	type platform struct {
		name string
		run  func(cfg Config, prep func(*Simulation)) *Simulation
	}
	platforms := []platform{{"lanes", func(cfg Config, prep func(*Simulation)) *Simulation {
		s, _ := lanePlatform(cfg, prep)
		return s
	}}}
	for _, seed := range calendarPropertySeeds {
		data := binary.LittleEndian.AppendUint64(nil, seed)
		platforms = append(platforms, platform{fmt.Sprintf("fuzz-%d", seed), func(cfg Config, prep func(*Simulation)) *Simulation {
			return fuzzPlatform(data, cfg, func(s *Simulation) {
				if prep != nil {
					s.SetDCShards(map[string]int{"NA": 0})
					prep(s)
				}
			})
		}})
	}
	for _, p := range platforms {
		ref := p.run(Config{LoopFlags: refFlags(true)}, nil)
		if ref.CompletedOps() == 0 {
			t.Fatalf("%s: the reference run completed nothing", p.name)
		}
		for _, n := range []int{1, 2, 4, 8} {
			for _, fs := range flagSets {
				for _, g := range gateSettings {
					t.Run(fmt.Sprintf("%s/sharded-%d/%s/%s", p.name, n, fs.name, g.name), func(t *testing.T) {
						got := p.run(Config{Engine: &spanTestRunner{n: n}, LoopFlags: fs.flags},
							func(s *Simulation) { s.sh.grain = g.grain })
						sameRun(t, ref, got)
					})
				}
			}
		}
	}
}

// TestGateInlineKeepsAuditContract: when the gate runs every window inline
// nothing is ever posted, so MailboxAudit must report its "off" shape —
// (0, 0, false), never a zero-sample minimum — no barrier is paid, and the
// engine's workers are never called.
func TestGateInlineKeepsAuditContract(t *testing.T) {
	eng := &countingRunner{spanTestRunner: spanTestRunner{n: 2}}
	s, _ := lanePlatform(Config{Engine: eng}, func(s *Simulation) { s.sh.grain = math.MaxInt })
	if applied, minSlack, ok := s.MailboxAudit(); applied != 0 || minSlack != 0 || ok {
		t.Errorf("MailboxAudit = (%d, %d, %v) with every window inline, want (0, 0, false)", applied, minSlack, ok)
	}
	st := s.Stats()
	if st.Barriers != 0 || st.WindowsStretched != 0 || st.MailboxApplied != 0 || eng.calls != 0 {
		t.Errorf("always-inline run paid %d barriers, stretched %d windows, applied %d mailbox entries, made %d RunShards calls; want none",
			st.Barriers, st.WindowsStretched, st.MailboxApplied, eng.calls)
	}
	if _, _, belowGrain, _ := s.SpanRefusals(); st.WindowsInline == 0 || belowGrain == 0 {
		t.Errorf("WindowsInline = %d, spans refused below the grain = %d: the inline path left no trace", st.WindowsInline, belowGrain)
	}
}

// TestGateCountersReproducible: the gate reads integers, never a clock, so
// two runs of one seed must agree on every loop-shape counter exactly. The
// platform sits astride the production grain: spans fork, the boundary
// windows between them run inline.
func TestGateCountersReproducible(t *testing.T) {
	run := func() *Simulation {
		return denseRing(Config{Engine: &spanTestRunner{n: 2}}, 2, 200, rand.New(rand.NewPCG(3, 4)), 4, nil)
	}
	a, b := run(), run()
	as, bs := a.Stats(), b.Stats()
	if as.Barriers != bs.Barriers || as.WindowsInline != bs.WindowsInline ||
		as.WindowsStretched != bs.WindowsStretched || as.MailboxApplied != bs.MailboxApplied || a.refused != b.refused {
		t.Errorf("loop counters differ between two runs of one seed:\n%+v %+v\n%+v %+v", as, a.refused, bs, b.refused)
	}
	if as.Barriers == 0 || as.WindowsInline == 0 {
		t.Errorf("barriers %d, inline windows %d — the default gate never forked, or never stood aside", as.Barriers, as.WindowsInline)
	}
}

// TestGateDensePlatformStillForks keeps the gate honest in the other
// direction: a dense platform — ~600 busy agents on two shards — must clear
// the production grain and pay its spans' barriers on the engine's workers,
// and still reproduce the reference loop. A gate that never forks would pass
// every other test.
func TestGateDensePlatformStillForks(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }
	ref := denseRing(Config{LoopFlags: refFlags(true)}, 2, 400, rng(), 2, nil)
	if ref.CompletedOps() == 0 {
		t.Fatal("the reference run completed nothing")
	}
	eng := &countingRunner{spanTestRunner: spanTestRunner{n: 2}}
	got := denseRing(Config{Engine: eng}, 2, 400, rng(), 2, nil)
	st := got.Stats()
	if got.ActiveAgents() < 512 {
		t.Fatalf("only %d agents busy, want >= 512", got.ActiveAgents())
	}
	if st.Barriers == 0 || st.WindowsStretched == 0 || eng.calls == 0 {
		t.Errorf("%d barriers, %d stretched windows, %d RunShards calls on a dense platform — the default gate never forked",
			st.Barriers, st.WindowsStretched, eng.calls)
	}
	sameRun(t, ref, got)
}

// denseSource keeps one Local operation per agent of its data center in
// flight: a long chain of stages walking the DC's agents ring-wise, each
// stage about a tick of service (exactly 0.9 ticks without an rng, so every
// agent has an event every tick), relaunched from the lane when one retires.
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
			ticks := 0.9
			if d.rng != nil {
				ticks = 0.3 + 2*d.rng.Float64()
			}
			stages[h] = Stage{Queue: a, Demand: ticks * a.q.Rate() * s.clock.Step()}
		}
		d.launched++
		plans := []MessagePlan{{Stages: stages}}
		s.StartOp(OpRun{Name: "ring", DC: d.dc, NumSteps: 1, Local: true,
			Expand: func(int) []MessagePlan { return plans },
			Retire: func() { d.inflight-- }})
	}
}

func (d *denseSource) NextPoll(now float64) float64 { return now }

// denseRing builds dcs data centers of per agents each, DC d on shard d
// modulo the engine's shard count, every agent kept busy by its DC's
// denseSource (seeded from rng, or lock-stepped when rng is nil), and runs
// it for the given simulated seconds. prep, when non-nil, sees the fresh
// simulation first.
func denseRing(cfg Config, dcs, per int, rng *rand.Rand, seconds float64, prep func(*Simulation)) *Simulation {
	cfg.Step, cfg.Seed, cfg.CollectEvery = 0.01, 1, 100
	s := NewSimulation(cfg)
	if prep != nil {
		prep(s)
	}
	n, sharded := s.Sharded()
	assign, lanes := []int32(nil), map[string]int{}
	srcs := make([]*denseSource, dcs)
	for d := range srcs {
		src := &denseSource{dc: fmt.Sprintf("DC%d", d)}
		if rng != nil {
			src.rng = rand.New(rand.NewPCG(rng.Uint64(), uint64(d)))
		}
		for i := 0; i < per; i++ {
			src.agents = append(src.agents, newHzAgent(s, fmt.Sprintf("%s-%d", src.dc, i), 100))
			if sharded {
				assign = append(assign, int32(d%n))
			}
		}
		if sharded {
			lanes[src.dc] = d % n
		}
		srcs[d] = src
	}
	s.SetShardAssignment(assign)
	s.SetDCShards(lanes)
	for _, src := range srcs {
		s.AddLaneSource(src, src.dc)
	}
	s.RunFor(seconds)
	s.Shutdown()
	return s
}

// wanAgent is a latencied processor-sharing transit link — what a
// cross-shard hand-off needs its target to be (see postInbox): it exposes
// the latency the lookahead rests on and whether a connection slot is free.
type wanAgent struct{ hzAgent }

func newWanAgent(s *Simulation, name string, rate, latency float64) *wanAgent {
	a := &wanAgent{}
	a.q = queueing.NewPS(rate, 64, latency)
	a.q.SetNotify(a.MarkDirty)
	a.InitAgent(s.NextAgentID(), name)
	s.AddAgent(a)
	return a
}

func (a *wanAgent) ps() *queueing.PS { return a.q.(*queueing.PS) }
func (a *wanAgent) Rate() float64    { return a.q.Rate() }
func (a *wanAgent) Latency() float64 { return a.ps().Latency() }
func (a *wanAgent) FreeSlot() bool {
	return a.ps().Waiting()+a.ps().InService() < a.ps().MaxConnections()
}

// wanTraffic is a global source launching cross-DC round trips: serve at the
// near DC, cross the WAN, serve at the far DC, cross back, finish at home.
type wanTraffic struct {
	near, far []*hzAgent
	out, back *wanAgent
	rng       *rand.Rand
	next      float64
}

func (wt *wanTraffic) Poll(s *Simulation, now float64) {
	if now < wt.next {
		return
	}
	dt := s.clock.Step()
	cpu := func(dc []*hzAgent) Stage {
		a := dc[wt.rng.IntN(len(dc))]
		return Stage{Queue: a, Demand: (0.5 + 4*wt.rng.Float64()) * a.q.Rate() * dt}
	}
	wire := func(l *wanAgent) Stage { return Stage{Queue: l, Demand: (0.2 + 3*wt.rng.Float64()) * l.Rate() * dt} }
	plans := []MessagePlan{{Stages: []Stage{cpu(wt.near), wire(wt.out), cpu(wt.far), wire(wt.back), cpu(wt.near)}}}
	s.StartOp(OpRun{Name: "X", DC: "A", NumSteps: 1, Expand: func(int) []MessagePlan { return plans }})
	wt.next = now + float64(15+wt.rng.IntN(50))*dt
}

func (wt *wanTraffic) NextPoll(float64) float64 { return wt.next }

// TestShardMidSpanDeliveryUnderForcedGate is the lookahead-safety property
// on a platform small enough that only a forced gate shards it: two data
// centers on two shards joined by 50 ms WAN links, lane-confined traffic in
// each plus a global source of cross-DC round trips. With the lookahead
// installed, spans form under live cross traffic and the WAN hops are
// posted mid-span into the far shard's inbox, applied ticks later with a
// replayed latency countdown (applyEntry panics on a late one): the audit
// must take its "on" shape — applied > 0, slack never negative, mirrored in
// RunStats. Under NoCrossStretch spans form only in the gaps between cross
// flows and under NoStretch not at all, so nothing is ever posted and the
// audit keeps its "off" shape. Every leg must reproduce the reference loop
// bit for bit. (The same property on real topology and hardware agents:
// TestMailboxDueTimeSafety in scenario_test.go.)
func TestShardMidSpanDeliveryUnderForcedGate(t *testing.T) {
	run := func(cfg Config) *Simulation {
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
			out: newWanAgent(s, "A>B", 1e4, 0.05), back: newWanAgent(s, "B>A", 1e4, 0.05)}
		if s.sh != nil {
			s.sh.grain = 0
			// Each link lives with the DC it enters, like a real partition.
			s.SetShardAssignment([]int32{0, 0, 0, 1, 1, 1, 1, 0})
			s.SetDCShards(map[string]int{"A": 0, "B": 1})
			s.SetShardLookahead([]float64{0.05, 0.05})
		}
		for _, lt := range local {
			s.AddLaneSource(lt, lt.dc)
		}
		s.AddSource(wt)
		s.RunFor(40)
		s.Shutdown()
		return s
	}
	ref := run(Config{LoopFlags: refFlags(true)})
	if ref.CompletedOps() == 0 {
		t.Fatal("the reference run completed nothing")
	}
	for _, tc := range []struct {
		name  string
		flags LoopFlags
	}{{"stretched", LoopFlags{}}, {"nostretch", LoopFlags{NoStretch: true}}, {"nocross", LoopFlags{NoCrossStretch: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(Config{Engine: &spanTestRunner{n: 2}, LoopFlags: tc.flags})
			sameRun(t, ref, got)
			applied, minSlack, ok := got.MailboxAudit()
			st := got.Stats()
			if st.MailboxApplied != applied || st.MailboxMinSlack != int64(minSlack) {
				t.Errorf("RunStats mailbox mirror (%d, %d) diverged from MailboxAudit (%d, %d)",
					st.MailboxApplied, st.MailboxMinSlack, applied, minSlack)
			}
			posted := got.sh.lanes[0].postSeq + got.sh.lanes[1].postSeq
			if applied != posted {
				t.Errorf("%d inbox entries posted, %d applied", posted, applied)
			}
			switch {
			case tc.flags.NoStretch && (st.WindowsStretched != 0 || st.Barriers != 0 || ok):
				t.Errorf("NoStretch run stretched %d windows behind %d barriers, audit ok=%v; want none", st.WindowsStretched, st.Barriers, ok)
			case tc.flags.NoCrossStretch && (st.WindowsStretched == 0 || ok):
				t.Errorf("NoCrossStretch run stretched %d windows (want > 0, in the gaps), audit ok=%v (want off: nothing may be posted)", st.WindowsStretched, ok)
			case tc.flags == LoopFlags{} && (st.WindowsStretched == 0 || !ok || applied == 0 || minSlack < 0):
				t.Errorf("stretched %d windows, MailboxAudit = (%d, %d, %v); want mid-span deliveries with non-negative slack",
					st.WindowsStretched, applied, minSlack, ok)
			}
			if !ok && (applied != 0 || minSlack != 0) {
				t.Errorf("off shape = (%d, %d, false), want (0, 0, false)", applied, minSlack)
			}
		})
	}
}
