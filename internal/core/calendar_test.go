package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/queueing"
	"repro/internal/simtime"
)

// TestCalendarHeapOrdering drives the calendar through inserts into both
// tiers (keys in [0, 1000) against a wheel of wheelSpan ticks from tick 0),
// decrease/increase rekeys across and within them, and removals, checking
// the head always reports the minimum. Ties pop in no particular order —
// the loop sorts what it pops by AgentID — so the pops of each key must be
// exactly the agents set to it, in any order.
func TestCalendarHeapOrdering(t *testing.T) {
	var c calendar
	c.grow(64)
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make(map[AgentID]simtime.Tick)
	for id := AgentID(0); id < 64; id++ {
		k := simtime.Tick(rng.Int64N(1000))
		c.set(id, k)
		keys[id] = k
	}
	// Rekey half the entries in both directions, remove a few.
	for id := AgentID(0); id < 64; id += 2 {
		k := simtime.Tick(rng.Int64N(1000))
		c.set(id, k)
		keys[id] = k
	}
	for id := AgentID(5); id < 64; id += 13 {
		c.remove(id)
		delete(keys, id)
	}
	if c.len() != len(keys) {
		t.Fatalf("calendar size %d, want %d", c.len(), len(keys))
	}
	if err := c.check(func(id AgentID) simtime.Tick { return keys[id] }); err != nil {
		t.Fatal(err)
	}
	want, got := make(map[simtime.Tick][]AgentID), make(map[simtime.Tick][]AgentID)
	for id, k := range keys {
		want[k] = append(want[k], id)
	}
	prevKey := simtime.Tick(-1)
	for c.len() > 0 {
		k := c.minKey()
		id := c.popMin()
		if keys[id] != k {
			t.Fatalf("popped agent %d at %d, want key %d", id, k, keys[id])
		}
		if k < prevKey {
			t.Fatalf("pop order violated: key %d after %d", k, prevKey)
		}
		prevKey = k
		got[k] = append(got[k], id)
		if c.contains(id) {
			t.Fatalf("agent %d still present after pop", id)
		}
	}
	for k, ids := range want {
		slices.Sort(ids)
		slices.Sort(got[k])
		if !slices.Equal(ids, got[k]) {
			t.Errorf("key %d popped %v, want %v", k, got[k], ids)
		}
	}
	// Removing an absent entry is a no-op.
	c.remove(3)
}

// TestCalendarPopDue pins popDue on the layouts a landing meets: one bucket
// holding several agents, a heap-tier entry that came due beside a due
// bucket (set beyond the wheel's span, then caught up by the cursor), several
// buckets due at once, and nothing due. Each row pops the agents keyed at or
// before at and leaves the rest, with the structure intact.
func TestCalendarPopDue(t *testing.T) {
	type entry struct {
		id  AgentID
		key simtime.Tick
	}
	cases := []struct {
		name    string
		cursor  simtime.Tick
		early   []entry      // set with the cursor at 0
		entries []entry      // set with the cursor at cursor
		at      simtime.Tick // popDue's argument
		want    []AgentID
	}{
		{name: "one bucket holding several agents", cursor: 3,
			entries: []entry{{0, 10}, {1, 10}, {2, 11}, {3, 10}, {4, 10}, {5, 400}}, at: 10, want: []AgentID{0, 1, 3, 4}},
		{name: "due heap entry beside a due bucket", cursor: 100,
			early: []entry{{0, 300}, {6, 301}}, entries: []entry{{1, 300}, {2, 300}, {3, 302}}, at: 300, want: []AgentID{0, 1, 2}},
		{name: "several buckets due", cursor: 250,
			entries: []entry{{0, 251}, {1, 260}, {2, 300}, {3, 506}, {4, 507}, {5, neverTick}}, at: 506, want: []AgentID{0, 1, 2, 3}},
		{name: "nothing due", cursor: 7, entries: []entry{{0, 9}, {1, 12}}, at: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c calendar
			c.grow(8)
			keys := map[AgentID]simtime.Tick{}
			for _, e := range tc.early {
				c.set(e.id, e.key)
				keys[e.id] = e.key
			}
			if got := c.popDue(tc.cursor, nil); len(got) != 0 {
				t.Fatalf("popDue(%d) before the cursor moved popped %v", tc.cursor, got)
			}
			c.cursor = tc.cursor
			for _, e := range tc.entries {
				c.set(e.id, e.key)
				keys[e.id] = e.key
			}
			got := c.popDue(tc.at, nil)
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("popDue(%d) = %v, want %v", tc.at, got, tc.want)
			}
			for _, id := range got {
				delete(keys, id)
			}
			c.cursor = tc.at
			if err := c.check(func(id AgentID) simtime.Tick { return keys[id] }); err != nil {
				t.Fatal(err)
			}
			if c.len() != len(keys) {
				t.Fatalf("%d entries left, want %d", c.len(), len(keys))
			}
			head := neverTick
			for id, k := range keys {
				head = min(head, k)
				if got := c.key(id); got != k {
					t.Errorf("agent %d keyed %d after the pop, want %d", id, got, k)
				}
			}
			if got := c.minKey(); got != head {
				t.Errorf("minKey %d after the pop, want %d", got, head)
			}
		})
	}
}

// TestSrcDueTickBoundaries pins the poll-schedule conversion: the due tick
// is the first tick landing at or after the NextPoll instant in the exact
// tick-time arithmetic, instants at or before now mean per-tick polling,
// and +Inf parks the source.
func TestSrcDueTickBoundaries(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cases := []struct {
		p    float64
		now  simtime.Tick
		want simtime.Tick
	}{
		{math.Inf(1), 0, neverTick},
		{0, 0, 1},     // "poll me now" => next tick
		{0.05, 0, 5},  // exactly on a tick boundary
		{0.051, 0, 6}, // just past a boundary
		{0.049999999, 0, 5},
		{1.00, 50, 100},  // from a later origin
		{0.5001, 50, 51}, // due within the next tick
	}
	for _, tc := range cases {
		if got := s.srcDueTick(tc.p, tc.now); got != tc.want {
			t.Errorf("srcDueTick(%v, %d) = %d, want %d", tc.p, tc.now, got, tc.want)
		}
		// Contract: every tick strictly before the due tick falls strictly
		// before p, so its skipped poll is a no-op by the Source contract.
		got := s.srcDueTick(tc.p, tc.now)
		if got != neverTick {
			for n := tc.now + 1; n < got; n++ {
				if s.clock.SecondsAt(n) >= tc.p {
					t.Errorf("tick %d lands at %v, at or past p=%v", n, s.clock.SecondsAt(n), tc.p)
					break
				}
			}
		}
	}
}

// srcDueTickOracle is srcDueTick as it stood before it was written over
// Clock.TickAt: a relative whole-tick estimate from now, corrected in both
// directions in absolute tick time.
func srcDueTickOracle(c *simtime.Clock, p float64, now simtime.Tick) simtime.Tick {
	if math.IsInf(p, 1) {
		return neverTick
	}
	nowSec := c.SecondsAt(now)
	if p <= nowSec {
		return now + 1
	}
	k := c.WholeTicksBefore(p - nowSec)
	if k >= 1<<62 {
		return neverTick
	}
	n := now + k + 1
	for n > now+1 && c.SecondsAt(n-1) >= p {
		n--
	}
	for c.SecondsAt(n) < p {
		n++
	}
	return n
}

// TestSrcDueTickMatchesOracle holds srcDueTick to its oracle on the
// boundary instants of several steps and origins — exact tick multiples
// and one ulp either side of them, the origin itself, instants before it,
// +Inf and instants beyond 2^62 ticks — and on random instants.
func TestSrcDueTickMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, step := range []float64{0.01, 0.1, 0.5, 1.0 / 3, 0.001} {
		s := NewSimulation(Config{Step: step, Seed: 1})
		c := s.clock
		for _, now := range []simtime.Tick{0, 1, 7, 50, 12345, 1 << 20, 1 << 40} {
			check := func(p float64) {
				t.Helper()
				if got, want := s.srcDueTick(p, now), srcDueTickOracle(c, p, now); got != want {
					t.Fatalf("step %v, now %d: srcDueTick(%v) = %d, the oracle's %d", step, now, p, got, want)
				}
			}
			// Beyond 2^62 ticks from every origin here; at exactly 2^62 the
			// two saturate differently (absolute against relative to now),
			// both past any representable run.
			far := 2 * c.SecondsAt(1<<62)
			for _, p := range []float64{math.Inf(1), math.Inf(-1), far, math.Nextafter(far, math.Inf(1)), 1e300, math.MaxFloat64, 0, -1, -step} {
				check(p)
			}
			for _, k := range []simtime.Tick{now - 3, now - 1, now, now + 1, now + 2, now + 5, now + 100, now + 12345, 2*now + 1, 1 << 30} {
				if k < 0 {
					continue
				}
				p := c.SecondsAt(k)
				check(p)
				check(math.Nextafter(p, math.Inf(1)))
				check(math.Nextafter(p, math.Inf(-1)))
				check(p + step/2)
			}
			for i := 0; i < 2000; i++ {
				p := c.SecondsAt(now) + (rng.Float64()-0.1)*step*float64(rng.IntN(1<<20))
				check(p)
			}
		}
	}
}

// countingSource reports a fixed-interval schedule and counts its polls.
type countingSource struct {
	interval float64
	next     float64
	polls    int
}

func (cs *countingSource) Poll(s *Simulation, now float64) {
	cs.polls++
	for now >= cs.next {
		cs.next += cs.interval
	}
}
func (cs *countingSource) NextPoll(now float64) float64 { return cs.next }

// vetoAgent never goes idle and keeps the conservative default horizon (0):
// it activates when it registers, and while registered it vetoes every
// fast-forward jump. It accepts no work.
type vetoAgent struct{ AgentBase }

func (v *vetoAgent) Step(dt float64) {}
func (v *vetoAgent) Idle() bool      { return false }

// TestCalendarSkipsNotDuePolls checks the poll scheduler: a source with a
// 50 ms schedule under a 10 ms step must be polled on roughly every fifth
// tick by the production loop, while the reference loop polls it every
// tick. A never-idle default-horizon agent holds the clock to single steps, so
// the difference comes from poll scheduling alone, not from jumps.
func TestCalendarSkipsNotDuePolls(t *testing.T) {
	run := func(ref bool) int {
		s := NewSimulation(Config{Step: 0.01, Seed: 1, LoopFlags: refFlags(ref)})
		v := &vetoAgent{}
		v.InitAgent(s.NextAgentID(), "veto")
		s.AddAgent(v)
		src := &countingSource{interval: 0.05}
		s.AddSource(src)
		s.RunFor(10) // 1000 ticks
		if j := s.Stats().Jumps; j != 0 {
			t.Fatalf("vetoed run took %d jumps", j)
		}
		return src.polls
	}
	ref := run(true)
	cal := run(false)
	if ref != 1000 {
		t.Errorf("reference loop polled %d times, want 1000", ref)
	}
	if cal < 198 || cal > 202 {
		t.Errorf("production loop polled %d times, want ~200 (every 5th tick)", cal)
	}
}

// TestCalendarRekeysOnEnqueue checks the invalidation path end to end at
// the core layer: work enqueued on an agent with a far-future calendar
// entry must pull its event earlier, not wait for the stale key.
func TestCalendarRekeysOnEnqueue(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, CollectEvery: 10000, Seed: 1})
	dl := NewDelayLine(s, "line")
	enq := func(delay float64) {
		s.StartOp(OpRun{
			Name: "D", DC: "NA", NumSteps: 1,
			Expander: ExpandFunc(func(int) []MessagePlan {
				return []MessagePlan{{Stages: []Stage{{Queue: dl, Demand: delay}}}}
			}),
		})
	}
	// A long delay parks the line's calendar entry far in the future...
	s.AddSource(&timedSource{at: 0, launch: func(*Simulation) { enq(50) }})
	// ...then a short delay enqueued later must complete on time anyway.
	s.AddSource(&timedSource{at: 1, launch: func(*Simulation) { enq(0.5) }})
	s.RunFor(60)
	if s.CompletedOps() != 2 {
		t.Fatalf("completed %d ops, want 2", s.CompletedOps())
	}
	ts := s.Responses.Series("D", "NA").T
	if math.Abs(ts[0]-1.51) > 0.02 {
		t.Errorf("short delay completed at %v, want ~1.51 (stale calendar entry?)", ts[0])
	}
	if math.Abs(ts[1]-50.01) > 0.02 {
		t.Errorf("long delay completed at %v, want ~50.01", ts[1])
	}
	if skipped := s.Stats().SkippedTicks; skipped < 4000 {
		t.Errorf("skipped only %d ticks; the schedule holds ~48 s of quiet", skipped)
	}
}

// orderAgent completes everything enqueued on it at its next step.
type orderAgent struct {
	AgentBase
	queue []*queueing.Task
}

func (o *orderAgent) Enqueue(t *queueing.Task) float64 {
	o.queue = append(o.queue, t)
	return Rekey
}
func (o *orderAgent) Step(dt float64) {
	for _, t := range o.queue {
		o.BufferDone(t)
	}
	o.queue = o.queue[:0]
}
func (o *orderAgent) Idle() bool { return len(o.queue) == 0 }

// TestActivationOrderIndependence pins the drain-order contract on both
// loops: agents activated in descending ID order must still drain in
// ascending ID order, and a following tick with nothing left to do must
// drain nothing. Each agent serves one single-stage operation, so the order
// the operations complete in is the order their agents drain in.
func TestActivationOrderIndependence(t *testing.T) {
	for _, ref := range []bool{false, true} {
		activationOrder(t, ref)
	}
}

func activationOrder(t *testing.T, ref bool) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1, LoopFlags: refFlags(ref)})
	var order []AgentID
	agents := make([]*orderAgent, 4)
	for i := range agents {
		a := &orderAgent{}
		a.InitAgent(s.NextAgentID(), "oa")
		s.AddAgent(a)
		agents[i] = a
	}
	// Activate in descending ID order within one sequential phase.
	for i := len(agents) - 1; i >= 0; i-- {
		a := agents[i]
		s.StartOp(OpRun{
			Name: "O", DC: "NA", NumSteps: 1,
			Expander:   ExpandFunc(func(int) []MessagePlan { return []MessagePlan{{Stages: []Stage{{Queue: a, Demand: 1}}}} }),
			OnComplete: func(float64, float64) { order = append(order, a.ID()) },
		})
	}
	s.Tick()
	if len(order) != 4 {
		t.Fatalf("drained %d completions, want 4", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("drain order not ascending: %v", order)
		}
	}
	order = order[:0]
	s.Tick()
	if len(order) != 0 {
		t.Fatalf("idle tick drained %v", order)
	}
}
