package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/metrics"
	"repro/internal/queueing"
)

// hzQueue is the method set FCFS and PS share that hzAgent drives.
type hzQueue interface {
	Enqueue(*queueing.Task)
	Step(dt float64, done queueing.DoneFunc)
	Idle() bool
	Horizon() float64
	BulkStep(n int, dt float64)
	SetNotify(queueing.Notifier)
	Rate() float64
}

// hzAgent is a horizon-aware, bulk-capable queue agent — the minimal
// hardware-like agent for core-layer tests. It reports exact horizons so
// the production loop can step it lazily, keys its arrivals through Arrive
// as hardware agents do, and counts Step invocations and total ticks
// advanced so tests can assert both that laziness engaged and that no tick
// was lost. Its StepN panics on a chunk that breaks BulkStepper's
// precondition, which the production loop must never hand it.
type hzAgent struct {
	AgentBase
	q       hzQueue
	steps   int   // Step invocations (per-tick work)
	stepped int64 // total ticks advanced, bulk or not
	arrived int   // enqueues since the loop last read Horizon: their Arrive may have keyed it early
}

func newHzAgent(s *Simulation, name string, rate float64) *hzAgent {
	return newHzAgentOn(s, name, queueing.NewFCFS(1, rate))
}

func newHzAgentOn(s *Simulation, name string, q hzQueue) *hzAgent {
	a := &hzAgent{q: q}
	a.q.SetNotify(&a.AgentBase)
	a.InitAgent(s.NextAgentID(), name)
	s.AddAgent(a)
	return a
}

// refFlags selects the reference loop when ref is set.
func refFlags(ref bool) LoopFlags { return LoopFlags{NoFastForward: ref} }

func (a *hzAgent) Enqueue(t *queueing.Task) {
	a.Sync()
	a.arrived++
	a.q.Enqueue(t)
}

func (a *hzAgent) Step(dt float64) {
	a.steps++
	a.stepped++
	a.q.Step(dt, a.BufferDone)
}

// stepNMargin is the room a bulk chunk must leave before the agent's next
// event: a tenth of ffGuard, far above Step's eps-early completions and the
// drift of a long subtraction chain, and below what advanceAgent leaves.
const stepNMargin = 1e-7

func (a *hzAgent) StepN(n int, dt float64) {
	if h := a.q.Horizon(); !(h > float64(n)*dt+stepNMargin) {
		panic(fmt.Sprintf("hzAgent %s: StepN(%d, %v) spans its next event, %v s away", a.Name(), n, dt, h))
	}
	a.stepped += int64(n)
	a.q.BulkStep(n, dt)
}

func (a *hzAgent) Idle() bool { return a.q.Idle() }

// Horizon reports the queue's horizon. The loop reads it only to key the
// agent (or, for a dirty agent, ahead of a rekey), so a key is exact until
// the next arrival.
func (a *hzAgent) Horizon() float64 {
	a.arrived = 0
	return a.q.Horizon()
}

// TestBulkDrainReachesArmedCompletion is the drain-set correctness case:
// a completion armed at t=0 that fires only after a long stretch, on an
// agent that is neither due nor notified at any intermediate iteration —
// a naive drain set built only from SetNotify firings would never reach
// it. A busy neighbor keeps the loop iterating every tick, so the armed
// agent is skipped by the involved-only sweep the whole way; the due-pop
// at its event tick must still step and drain it at exactly the instant
// the reference loop does.
func TestBulkDrainReachesArmedCompletion(t *testing.T) {
	run := func(ref bool) (*Simulation, *hzAgent, *hzAgent) {
		s := NewSimulation(Config{Step: 0.01, Seed: 1, CollectEvery: 1 << 30, LoopFlags: refFlags(ref)})
		slow := newHzAgent(s, "slow", 100) // demand 100 => 1 s = 100 ticks
		fast := newHzAgent(s, "fast", 100)
		armed := false
		s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
			if !armed {
				armed = true
				sim.StartOp(singleStageOp("ARMED", "NA", slow, 100))
			}
			// One short op per tick keeps events firing on the neighbor, so
			// the loop single-steps densely while the armed agent waits.
			sim.StartOp(singleStageOp("NOISE", "NA", fast, 2))
		}))
		s.RunFor(1.5)
		return s, slow, fast
	}
	bulk, bulkSlow, _ := run(false)
	plain, plainSlow, _ := run(true)

	// The armed completion must be drained at the exact tick it fires.
	bs, ps := bulk.Responses.Series("ARMED", "NA"), plain.Responses.Series("ARMED", "NA")
	if bs == nil || bs.Len() != 1 || ps.Len() != 1 {
		t.Fatalf("armed op completions: bulk %v plain %v, want 1 each", bs, ps)
	}
	if bs.T[0] != ps.T[0] || bs.V[0] != ps.V[0] {
		t.Fatalf("armed completion diverged: (%v, %v) vs (%v, %v)", bs.T[0], bs.V[0], ps.T[0], ps.V[0])
	}
	if math.Abs(bs.T[0]-1.01) > 0.011 {
		t.Errorf("armed completion at %v, want ~1.01 (100 ticks service + forwarding tick)", bs.T[0])
	}
	// Noise traffic must match bit for bit too.
	bn, pn := bulk.Responses.Series("NOISE", "NA"), plain.Responses.Series("NOISE", "NA")
	if bn.Len() != pn.Len() {
		t.Fatalf("noise completions: %d vs %d", bn.Len(), pn.Len())
	}
	for i := range pn.V {
		if bn.T[i] != pn.T[i] || bn.V[i] != pn.V[i] {
			t.Fatalf("noise completion %d diverged: (%v, %v) vs (%v, %v)", i, bn.T[i], bn.V[i], pn.T[i], pn.V[i])
		}
	}
	// Both loops advanced the armed agent through the same ticks, but the
	// production loop must have done so lazily: a handful of Step calls
	// (the event tick plus catch-up remainders) instead of one per tick.
	if bulkSlow.stepped != plainSlow.stepped {
		t.Errorf("ticks advanced diverged: bulk %d vs plain %d", bulkSlow.stepped, plainSlow.stepped)
	}
	if plainSlow.steps < 90 {
		t.Errorf("reference loop stepped the armed agent %d times, want ~100 (every tick)", plainSlow.steps)
	}
	if bulkSlow.steps > 10 {
		t.Errorf("production loop stepped the armed agent %d times, want <= 10 (lazy catch-up)", bulkSlow.steps)
	}
}

// TestBulkQuietArmedCompletion is the jump variant of the drain-set case:
// nothing else happens, so the loop takes one long jump onto the armed
// event tick — the completion must still be found and drained on time.
func TestBulkQuietArmedCompletion(t *testing.T) {
	run := func(ref bool) *Simulation {
		s := NewSimulation(Config{Step: 0.01, Seed: 1, CollectEvery: 1 << 30, LoopFlags: refFlags(ref)})
		slow := newHzAgent(s, "slow", 100)
		s.AddSource(&timedSource{at: 0, launch: func(sim *Simulation) {
			sim.StartOp(singleStageOp("ARMED", "NA", slow, 500)) // 5 s
		}})
		s.RunFor(10)
		return s
	}
	bulk, plain := run(false), run(true)
	bs, ps := bulk.Responses.Series("ARMED", "NA"), plain.Responses.Series("ARMED", "NA")
	if bs == nil || bs.Len() != 1 || ps.Len() != 1 {
		t.Fatalf("completions: bulk %v plain %v, want 1 each", bs, ps)
	}
	if bs.T[0] != ps.T[0] || bs.V[0] != ps.V[0] {
		t.Fatalf("completion diverged: (%v, %v) vs (%v, %v)", bs.T[0], bs.V[0], ps.T[0], ps.V[0])
	}
	if bskip := bulk.Stats().SkippedTicks; bskip < 900 {
		t.Errorf("skipped only %d ticks; the quiet schedule holds ~9.5 s", bskip)
	}
}

// TestBulkLazyEnqueueSyncsFirst pins the catch-up-before-enqueue contract:
// work arriving on a lazily-stepped agent must land on state that has been
// replayed to the present tick, so in-progress service keeps its exact
// completion instant and the new work queues behind it identically to the
// reference loop.
func TestBulkLazyEnqueueSyncsFirst(t *testing.T) {
	run := func(ref bool) *Simulation {
		s := NewSimulation(Config{Step: 0.01, Seed: 1, CollectEvery: 1 << 30, LoopFlags: refFlags(ref)})
		ag := newHzAgent(s, "srv", 100)
		fast := newHzAgent(s, "fast", 100)
		// Long service armed at t=0; a second task lands mid-service at
		// t=0.4 while the agent is lazy; noise keeps the loop dense.
		s.AddSource(&timedSource{at: 0, launch: func(sim *Simulation) {
			sim.StartOp(singleStageOp("LONG", "NA", ag, 80)) // 0.8 s
		}})
		s.AddSource(&timedSource{at: 0.4, launch: func(sim *Simulation) {
			sim.StartOp(singleStageOp("TAIL", "NA", ag, 30)) // 0.3 s after LONG
		}})
		n := 0
		s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
			n++
			if n%3 == 0 {
				sim.StartOp(singleStageOp("NOISE", "NA", fast, 3))
			}
		}))
		s.RunFor(2)
		return s
	}
	bulk, plain := run(false), run(true)
	for _, op := range []string{"LONG", "TAIL", "NOISE"} {
		bs, ps := bulk.Responses.Series(op, "NA"), plain.Responses.Series(op, "NA")
		if bs == nil || ps == nil || bs.Len() != ps.Len() {
			t.Fatalf("%s: completions %v vs %v", op, bs, ps)
		}
		for i := range ps.V {
			if bs.T[i] != ps.T[i] || bs.V[i] != ps.V[i] {
				t.Fatalf("%s completion %d diverged: (%v, %v) vs (%v, %v)", op, i, bs.T[i], bs.V[i], ps.T[i], ps.V[i])
			}
		}
	}
}

// parkingSource launches once and then parks its schedule at +Inf,
// counting Poll and NextPoll invocations — the instrument for pinning the
// dormant-source contract: a parked source must not be re-consulted until
// an explicit RearmSource notification.
type parkingSource struct {
	at        float64
	fired     int
	polls     int
	nextPolls int
}

func (p *parkingSource) Poll(s *Simulation, now float64) {
	p.polls++
	if now >= p.at {
		p.fired++
		p.at = math.Inf(1)
	}
}

func (p *parkingSource) NextPoll(now float64) float64 {
	p.nextPolls++
	return p.at
}

// TestDormantSourceNotReconsulted pins the explicit re-arm contract: a
// source whose NextPoll returns +Inf is parked — zero Poll or NextPoll
// calls while dormant, however many iterations pass — and RearmSource is
// what wakes it. The pinned veto agent forces an iteration per tick, so
// the old per-iteration reconsult would have produced hundreds of
// NextPoll calls.
func TestDormantSourceNotReconsulted(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	v := &vetoAgent{}
	v.InitAgent(s.NextAgentID(), "veto")
	s.AddAgent(v)
	v.Pin()
	src := &parkingSource{at: 0.1}
	h := s.AddSource(src)

	s.RunFor(5) // 500 per-tick iterations
	if src.fired != 1 || src.polls != 2 {
		t.Fatalf("fired %d times in %d polls, want 1 in 2 (registration tick + due tick)", src.fired, src.polls)
	}
	// One NextPoll per executed poll — and none across the ~490 dormant
	// iterations, which the per-iteration reconsult would each have paid.
	if src.nextPolls != src.polls {
		t.Errorf("NextPoll consulted %d times for %d polls; dormant stretch must add none", src.nextPolls, src.polls)
	}

	// Re-arm mid-run: the source schedules a second launch and notifies.
	src.at = s.Clock().NowSeconds() + 0.5
	s.RearmSource(h)
	consulted := src.nextPolls
	if consulted != src.polls+1 {
		t.Fatalf("RearmSource consulted NextPoll %d times, want exactly once", consulted-src.polls)
	}
	s.RunFor(1)
	if src.fired != 2 {
		t.Errorf("re-armed source fired %d times, want 2", src.fired)
	}
	if src.polls != 3 {
		t.Errorf("re-armed source polled %d times, want 3 (exactly one new due poll)", src.polls)
	}
	if src.nextPolls != src.polls+1 {
		t.Errorf("NextPoll consulted %d times total, want %d (no reconsult after re-parking)", src.nextPolls, src.polls+1)
	}
}

// TestCalendarInvalidationProperty drives a random interleaving of every
// operation that can move an agent's next event — enqueues onto idle and
// busy FCFS queues of one to three servers and PS queues with and without
// latency, ticks (due pops and completions), jumps, bare
// MarkDirty/MarkActive — and after each operation folds the dirty set and
// checks the full calendar invariant on the root window (checkWindow). The
// zero-latency PS queues take concurrent transfers, whose arrivals key
// their agents strictly early; each seed must see that happen.
func TestCalendarInvalidationProperty(t *testing.T) {
	for _, seed := range calendarPropertySeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			calendarProperty(t, seed, 10000)
		})
	}
}

// calendarPropertySeeds also seed FuzzLoopMatchesReference's corpus.
var calendarPropertySeeds = []uint64{1, 7, 42}

// checkWindow folds a window's pending invalidations, as the loop would
// before reading the calendar head, and checks the calendar invariant over
// the agents the window owns: the calendar's structure holds (calendar.check:
// bucket lists, occupancy bits and summary word agree, the cached minimum is
// the true one, every wheel key lies in [cursor, cursor+wheelSpan), the heap
// tier is a valid heap), every active agent has exactly one entry, and no
// inactive agent lingers. The key is never later than the agent's freshly
// recomputed due tick (based at the tick its state has advanced through),
// and equals it unless an arrival since the loop last keyed the agent from
// its horizon may have lowered it to a bound — the agents the fold rekeyed
// and those that acted in the last window with nothing enqueued since are
// exact. It returns how many keys lay strictly before their due tick.
func checkWindow(w *window, agents []*hzAgent) (early int, err error) {
	w.rekey()
	s := w.s
	if err := w.cal.check(w.cal.key); err != nil {
		return 0, err
	}
	active := 0
	for _, a := range agents {
		b := a.Base()
		if !b.active {
			if w.cal.contains(b.id) {
				return 0, fmt.Errorf("inactive agent %d still in calendar", b.id)
			}
			continue
		}
		active++
		if !w.cal.contains(b.id) {
			return 0, fmt.Errorf("active agent %d missing from calendar", b.id)
		}
		h := a.q.Horizon() // not a.Horizon: the check must not mark the key exact
		got, want := w.cal.key(b.id), s.agentKey(h, s.agentTick[b.id])
		if got > want || got < want && a.arrived == 0 {
			return 0, fmt.Errorf("agent %d key %d, due at %d (horizon %v based at tick %d, %d arrivals since it was keyed)",
				b.id, got, want, h, s.agentTick[b.id], a.arrived)
		}
		if got < want {
			early++
		}
	}
	if w.cal.len() != active {
		return 0, fmt.Errorf("%d calendar entries for %d active agents", w.cal.len(), active)
	}
	return early, nil
}

// propertyQueues are calendarProperty's agents: FCFS queues of one to three
// servers and PS links with and without latency; the zero-latency links
// take concurrent transfers.
var propertyQueues = []func() hzQueue{
	func() hzQueue { return queueing.NewFCFS(1, 100) },
	func() hzQueue { return queueing.NewFCFS(2, 200) },
	func() hzQueue { return queueing.NewFCFS(3, 300) },
	func() hzQueue { return queueing.NewFCFS(1, 400) },
	func() hzQueue { return queueing.NewPS(500, 4, 0) },
	func() hzQueue { return queueing.NewPS(600, 2, 0) },
	func() hzQueue { return queueing.NewPS(700, 4, 0.03) },
	func() hzQueue { return queueing.NewPS(800, 3, 0.004) },
}

func calendarProperty(t *testing.T, seed uint64, nops int) {
	t.Helper()
	s := NewSimulation(Config{Step: 0.01, Seed: seed, CollectEvery: 1 << 30})
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	agents := make([]*hzAgent, len(propertyQueues))
	for i, q := range propertyQueues {
		agents[i] = newHzAgentOn(s, fmt.Sprintf("prop-%d", i), q())
	}
	early := 0
	for i := 0; i < nops; i++ {
		a := agents[rng.IntN(len(agents))]
		var op string
		switch rng.IntN(10) {
		case 0, 1, 2, 3: // enqueue work (flows exercise Sync + SetNotify)
			demand := (0.2 + 5*rng.Float64()) * a.q.Rate() * s.clock.Step()
			s.StartOp(singleStageOp("P", "NA", a, demand))
			op = "enqueue"
		case 4, 5, 6: // advance one tick: pops due entries, completes work
			s.Tick()
			op = "tick"
		case 7: // multi-tick run: jumps, pops, drains, deactivations
			s.RunFor(float64(1+rng.IntN(20)) * s.clock.Step())
			op = "run"
		case 8:
			a.MarkDirty()
			op = "markdirty"
		default:
			a.MarkActive()
			op = "markactive"
		}
		n, err := checkWindow(&s.root, agents)
		if err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
		early += n
	}
	if early == 0 {
		t.Errorf("no key was ever strictly early: the concurrent zero-latency transfers never lowered one to a bound")
	}
}

// laneTraffic is a per-data-center source driving random single-stage
// operations onto its own data center's agents from its own RNG stream. On
// every poll the production loop makes, it first checks the calendar
// invariant over every agent (all), wherever the window loop landed; the
// reference loop keeps no calendar and is not checked. The first failure is
// kept, not raised.
type laneTraffic struct {
	dc      string
	agents  []*hzAgent // the DC's agents
	all     []*hzAgent // every agent; nil skips the invariant check
	rng     *rand.Rand
	next    float64
	checked int
	failure error
}

func (lt *laneTraffic) Poll(s *Simulation, now float64) {
	if now < lt.next {
		return
	}
	if lt.all != nil && lt.failure == nil && s.fastForward {
		if _, err := checkWindow(&s.root, lt.all); err != nil {
			lt.failure = fmt.Errorf("%s at %v s: %w", lt.dc, now, err)
		}
		lt.checked++
	}
	for n := lt.rng.IntN(3); n > 0; n-- {
		a := lt.agents[lt.rng.IntN(len(lt.agents))]
		s.StartOp(singleStageOp("L-"+lt.dc, lt.dc, a, (0.2+8*lt.rng.Float64())*a.q.Rate()*s.clock.Step()))
	}
	lt.next = now + float64(1+lt.rng.IntN(12))*s.clock.Step()
}

func (lt *laneTraffic) NextPoll(float64) float64 { return lt.next }

// TestCalendarPropertyOnLaneWindow runs the calendar invariant on the
// windows of a running production loop rather than on hand-picked
// interleavings: two data centers, each driven by its own laneTraffic
// source, which checks the invariant at every poll the loop makes —
// polls land after jumps, mid-burst and on collector boundaries alike. The
// same platform on the reference loop must produce identical responses.
func TestCalendarPropertyOnLaneWindow(t *testing.T) {
	got, srcs := lanePlatform(Config{Engine: &chunkRunner{n: 2}}, (*Simulation).RunFor)
	ref, _ := lanePlatform(Config{LoopFlags: refFlags(true)}, (*Simulation).RunFor)
	for _, lt := range srcs {
		if lt.failure != nil {
			t.Error(lt.failure)
		}
		if lt.checked < 100 {
			t.Errorf("%s: the invariant was checked at only %d polls", lt.dc, lt.checked)
		}
	}
	if got.Stats().Jumps == 0 {
		t.Error("the production loop never jumped; no poll landed after a jump")
	}
	if g, r := got.CompletedOps(), ref.CompletedOps(); g != r || g == 0 {
		t.Errorf("completed ops: %d on the production loop, %d on the reference loop", g, r)
	}
	for _, dc := range []string{"A", "B"} {
		sameSeriesBits(t, "L-"+dc, ref.Responses.Series("L-"+dc, dc), got.Responses.Series("L-"+dc, dc))
	}
}

// lanePlatform builds TestCalendarPropertyOnLaneWindow's platform — data
// centers A and B, four agents each, each driven by its own laneTraffic
// source — hands drive 30 simulated seconds of it, and shuts it down.
func lanePlatform(cfg Config, drive func(*Simulation, float64)) (*Simulation, []*laneTraffic) {
	cfg.Step, cfg.Seed, cfg.CollectEvery = 0.01, 7, 250
	s := NewSimulation(cfg)
	var all []*hzAgent
	var srcs []*laneTraffic
	for d, dc := range []string{"A", "B"} {
		lt := &laneTraffic{dc: dc, rng: rand.New(rand.NewPCG(7, uint64(d)))}
		for i := 0; i < 4; i++ {
			lt.agents = append(lt.agents, newHzAgent(s, fmt.Sprintf("%s-%d", dc, i), 100*float64(i+1)))
		}
		all = append(all, lt.agents...)
		srcs = append(srcs, lt)
	}
	for _, lt := range srcs {
		lt.all = all
		s.AddSource(lt)
	}
	drive(s, 30)
	s.Shutdown()
	return s, srcs
}

// sameSeriesBits asserts two series hold bit-identical samples.
func sameSeriesBits(t *testing.T, name string, ref, got *metrics.Series) {
	t.Helper()
	if ref == nil || got == nil {
		if ref != got {
			t.Fatalf("%s: series present on one side only (%v vs %v)", name, ref != nil, got != nil)
		}
		return
	}
	if ref.Len() != got.Len() {
		t.Fatalf("%s: %d vs %d samples", name, ref.Len(), got.Len())
	}
	for i := range ref.V {
		if ref.T[i] != got.T[i] || ref.V[i] != got.V[i] {
			t.Fatalf("%s: sample %d diverged: (%v, %v) vs (%v, %v)", name, i, ref.T[i], ref.V[i], got.T[i], got.V[i])
		}
	}
}

// TestDirectTickMatchesReference runs the same random traffic under direct
// Tick calls — where every landing is a full-sync — and under the jumping
// run loop, on the production and the reference loop, asserting identical
// responses. It complements the scenario-level equivalence suite with a
// core-only harness that is cheap enough for -short.
func TestDirectTickMatchesReference(t *testing.T) {
	run := func(ref bool, direct bool) *Simulation {
		s := NewSimulation(Config{Step: 0.01, Seed: 9, CollectEvery: 50, LoopFlags: refFlags(ref)})
		ag := newHzAgent(s, "srv", 200)
		dl := NewDelayLine(s, "think")
		count := 0
		s.AddSource(SourceFunc(func(sim *Simulation, now float64) {
			if count < 40 && sim.Clock().Now()%7 == 0 {
				count++
				d := 1 + sim.RNG().Float64()*20
				sim.StartOp(OpRun{
					Name: "MIX", DC: "NA", NumSteps: 2,
					Expand: func(step int) []MessagePlan {
						if step == 0 {
							return []MessagePlan{{Stages: []Stage{{Queue: ag, Demand: d}}}}
						}
						return []MessagePlan{{Stages: []Stage{{Queue: dl, Demand: 0.13}}}}
					},
				})
			}
		}))
		if direct {
			for i := 0; i < 600; i++ {
				s.Tick()
			}
		} else {
			s.RunFor(6)
		}
		return s
	}
	ref := run(true, false)
	for _, tc := range []struct {
		name   string
		ref    bool
		direct bool
	}{{"production-run", false, false}, {"production-direct-tick", false, true}, {"reference-direct-tick", true, true}} {
		got := run(tc.ref, tc.direct)
		if ref.CompletedOps() != got.CompletedOps() {
			t.Errorf("%s: completed ops %d vs %d", tc.name, ref.CompletedOps(), got.CompletedOps())
		}
		sameSeriesBits(t, tc.name, ref.Responses.Series("MIX", "NA"), got.Responses.Series("MIX", "NA"))
	}
}
