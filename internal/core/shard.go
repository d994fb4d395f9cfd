package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/simtime"
)

// ShardRunner is the engine capability that unlocks the sharded PDES
// runtime: an engine that owns a fixed set of shard-pinned workers and can
// run one function on every shard concurrently. When the configured engine
// implements it (dispatch.Sharded does) and the production loop is on, the
// simulation partitions its agents across the shards and, wherever the
// conservative protocol allows it and the stretch carries enough work to
// pay for the hand-off (shardGrain), lets every shard run consecutive
// windows on its own lane between two barriers — a stretched span. Every
// other window runs whole on the calling goroutine, on the sequential
// engine's path. LoopFlags.NoShards turns the runtime off for A/B
// comparison while keeping the same engine.
type ShardRunner interface {
	Engine
	// ShardCount reports the number of shards the engine runs.
	ShardCount() int
	// RunShards invokes fn(shard) once per shard, concurrently, and
	// returns after every invocation finished. Calls never overlap: the
	// simulation is single-threaded between parallel phases.
	RunShards(fn func(shard int))
}

// mailEntry is one deferred cross-shard enqueue: a task handed mid-span
// from a shard lane to a queue agent another shard owns, posted into the
// target shard's inbox and applied at the next application point — span
// entry, collector-boundary span exit, or the next root window. due is the
// earliest tick at which the task can have an observable effect on the
// receiver: the posting tick plus the whole ticks covered by the target
// link's latency — the lookahead of the conservative protocol. post is the
// tick the enqueue happened at in sequential terms; lat snapshots the
// target link's latency then, so a late application can reconstruct the
// latency countdown bit-exactly (queueing.ReplayLatency). src and seq
// order concurrent posts the way the sequential drain would have: the
// drain visits agents in ascending ID at each tick, and seq preserves the
// completion order within one agent's drain. The apply phase audits that
// no replayed entry is ever applied at or past its due tick; the property
// tests pin the audit.
type mailEntry struct {
	q    QueueAgent
	t    *queueing.Task
	due  simtime.Tick
	post simtime.Tick
	lat  float64
	src  AgentID
	seq  uint64
}

// cmpMail orders inbox entries the way the sequential drain enqueued them:
// by tick, then by the draining agent's ID (the drain visits agents in
// ascending ID order), then by the per-lane post sequence (completion
// order within one agent's drain — one lane per agent makes it a valid
// global tiebreak). Due-time order would be wrong: a degraded link's
// longer latency can invert due order against post order.
func cmpMail(a, b mailEntry) int {
	switch {
	case a.post != b.post:
		if a.post < b.post {
			return -1
		}
		return 1
	case a.src != b.src:
		if a.src < b.src {
			return -1
		}
		return 1
	case a.seq != b.seq:
		if a.seq < b.seq {
			return -1
		}
		return 1
	}
	return 0
}

// shardInbox is one shard's mid-span inbound mailbox: cross-shard posts
// from any lane land here under the mutex (the only lock in the span path;
// posts are rare — one per WAN hop — and never contend with the owner,
// which only drains the inbox at sequential application points). The
// trailing pad keeps adjacent inboxes off one cache line.
type shardInbox struct {
	mu   sync.Mutex
	pend []mailEntry
	_    [64]byte
}

// shardGrain is the grain gate of the sharded runtime: the work, in agent
// advances, a span must carry before it is handed to the shard workers,
// counted as an upper bound — the ticks it covers times the live agents.
// Below the grain the root goroutine runs the window inline on the
// sequential engine's path — no barrier, no mailbox — so a sharded run is
// never slower than a sequential one by more than the gate's few
// comparisons. A single window never forks at all: measured against the
// inline path it lost at every population (DESIGN.md, "Grain gate", which
// also records the measurement behind the value). The decision reads only
// integers the loop already holds, never a clock, which keeps
// RunStats.Barriers, WindowsInline, WindowsStretched and MailboxApplied
// exactly reproducible per seed.
const shardGrain = 8192

// spanBackoffMax caps, in windows, how long the span scheduler stays away
// after consecutive token walks that found no span.
const spanBackoffMax = 32

// shardState is the sharded-runtime extension of a Simulation: the shard
// map, per-shard lanes and inboxes, and the per-shard RNG seeds. It
// exists only when the configured engine is a ShardRunner and neither
// LoopFlags.NoFastForward nor LoopFlags.NoShards is set.
type shardState struct {
	runner ShardRunner
	n      int
	// grain is shardGrain; the package's tests override it — here, or
	// through the engine they hand in — to force every admissible span onto
	// the workers (0) or every window inline (math.MaxInt).
	grain int
	// seeds[w] = DeriveSeed(Config.Seed, w): an independent stream root
	// per shard, for shard-resident stochastic components. The stock
	// cascade machinery draws all randomness in the sequential residue
	// (that is what keeps results bit-identical across shard counts), so
	// these streams are reserved capacity, exposed via ShardSeed.
	seeds []uint64
	// shardOf maps AgentID to owning shard; agents beyond its length (or
	// an unconfigured map) fall back to ID modulo n. Any assignment is
	// bit-identical — ownership only decides which worker executes an
	// agent's arithmetic — so the fallback is a correctness-neutral
	// default and topology.PartitionByDC a locality optimization.
	shardOf []int32

	// inSpan hands each agent's loop state to its shard's lane window
	// (Simulation.windowOf) while a stretched span runs; the flow hooks
	// resolve lanes then too.
	inSpan bool

	// stretch enables Chandy-Misra window stretching (LoopFlags.NoStretch
	// off): between global barriers each shard may run many consecutive
	// calendar windows on its own lane, bounded by the next collector
	// boundary, the run end and the earliest global-source due tick.
	stretch bool
	// noCross restores the PR 8 binary guard (LoopFlags.NoCrossStretch):
	// spans form only while no cross-capable flow is in flight. By default
	// spans instead bound themselves by the per-token chain-completion
	// guard plus the WAN lookahead and survive live cross-DC cascades.
	noCross bool
	// lookTicks is the installed WAN lookahead in ticks: the minimum over
	// all shards with a finite topology.ShardPlan.LookaheadSec of that
	// bound's TicksIn. Every mid-span cross-shard post targets a transit
	// link whose latency is at least the receiving shard's bound, so any
	// post made at lane tick p carries due >= p + lookTicks — capping a
	// span at entry+lookTicks keeps every post due strictly beyond the
	// span end. Zero means not installed (SetShardLookahead never called,
	// or some shard's inbound latency rounds to zero ticks): spans then
	// refuse to form while any token may still cross shards — the
	// conservative PR 8 behavior. neverTick means unbounded (no shard has
	// a finite bound, so no cross-shard edge exists at all). globMin belongs
	// to glob, below.
	lookTicks, globMin simtime.Tick
	// dcLane maps each data-center name to its owning shard — the routing
	// table lane-confined flows and sources resolve through. Installed by
	// SetDCShards from the topology partition; spans never form while it
	// is empty.
	dcLane map[string]int
	// glob lists the global sources — not lane-confined, or confined to an
	// unmapped data center; nil means rebuild (a source or the routing table
	// was added). globMin caches their earliest due tick the way
	// window.srcMin caches the root's, and globDirty marks it out of date (a
	// root poll or a re-arm moved a due tick), so the span scheduler reads
	// one integer per window instead of walking every source.
	glob      []int
	globDirty bool
	// spanSkip counts the windows the span scheduler still sits out after a
	// token walk found no span; spanBackoff is the last such interval,
	// roughly doubled by the next refusal and reset by a span.
	spanSkip, spanBackoff int
	// lanes holds each shard's window and span state; shardWindows counts
	// the lane windows each shard ran inside spans.
	lanes        []laneState
	shardWindows []uint64

	// inbox[w] receives mid-span cross-shard posts bound for shard w.
	inbox []shardInbox

	// spanFn is the lane worker, bound once so a span's RunShards call
	// allocates no closure.
	spanFn func(int)
}

func newShardState(s *Simulation, runner ShardRunner, seed uint64) *shardState {
	n := runner.ShardCount()
	st := &shardState{
		runner:       runner,
		n:            n,
		grain:        shardGrain,
		globDirty:    true,
		seeds:        make([]uint64, n),
		lanes:        make([]laneState, n),
		shardWindows: make([]uint64, n),
		inbox:        make([]shardInbox, n),
	}
	// An engine built by this package's tests may carry its own grain
	// (export_test.go); no type outside the package can have the method.
	if g, ok := runner.(interface{ forcedGrain() int }); ok {
		st.grain = g.forcedGrain()
	}
	for w := range st.lanes {
		st.seeds[w] = DeriveSeed(seed, uint64(w))
		ln := &st.lanes[w]
		ln.w = int32(w)
		ln.mailMinSlack = neverTick
		// Lane task/flow IDs start in a per-shard band so they never
		// collide with the root's counters.
		ln.window = window{s: s, srcMin: neverTick, resp: metrics.NewResponses(),
			nextFlowID: uint64(w+1) << 48, nextTaskID: uint64(w+1) << 48}
	}
	st.spanFn = func(w int) {
		ln := &st.lanes[w]
		for ln.tick < ln.spanEnd {
			s.laneWindow(ln)
		}
	}
	return st
}

// shard returns the owning shard of an agent.
func (st *shardState) shard(id AgentID) int32 {
	if int(id) < len(st.shardOf) {
		return st.shardOf[id]
	}
	return int32(int(id) % st.n)
}

// applyEntry commits one deferred enqueue onto its target agent with the
// exact sync/enqueue/activate sequence the flow router would have run
// inline. An entry posted on its span's last tick and flushed at the exit
// applies at its posting tick and reduces to that inline sequence
// verbatim. The others apply whole ticks after their post: the target is a
// latencied transit link whose task spends those ticks in its latency
// phase — consuming no bandwidth, holding only one of k connection slots —
// so the only state the late enqueue must reconstruct is the latency
// countdown, which ReplayLatency rebuilds bit-exactly from the snapshotted
// latency and the elapsed whole ticks.
// That reconstruction is only exact if the task would have held a slot
// from its posting instant, so a contended link is a loud protocol
// failure, never a silent divergence. The audit pins the conservative
// protocol: a replayed entry applied at or past its due tick would mean
// the receiver may already have advanced through state the message should
// have influenced.
func (st *shardState) applyEntry(s *Simulation, e *mailEntry) {
	id := e.q.ID()
	ln := &st.lanes[st.shard(id)]
	applyTick := s.windowOf(id).tick
	if applyTick > e.post && applyTick >= e.due {
		panic(fmt.Sprintf("core: mailbox entry posted at tick %d, due at %d, applied at %d — past its due instant",
			e.post, e.due, applyTick))
	}
	if slack := e.due - applyTick; slack < ln.mailMinSlack {
		ln.mailMinSlack = slack
	}
	ln.mailApplied++
	s.syncAgent(id)
	replay := applyTick > e.post
	if replay {
		sf, ok := e.q.(interface{ FreeSlot() bool })
		if !ok || !sf.FreeSlot() {
			panic(fmt.Sprintf("core: replayed cross-shard delivery onto contended transit %T — latency replay would diverge", e.q))
		}
	}
	e.q.Enqueue(e.t)
	if replay {
		e.t.Delay = queueing.ReplayLatency(e.lat, int(applyTick-e.post), s.clock.Step())
	}
	e.q.Base().MarkActive()
	if tok, ok := e.t.Payload.(*token); ok {
		tok.parked = 0
		tok.stageTick = applyTick
		tok.home = ln.w
	}
}

// postInbox parks a mid-span cross-shard hand-off in the target shard's
// inbox. The posting lane stamps the entry with its own tick, the target
// link's latency (the entry's lookahead) and the sequential-order key; the
// token records its due tick so the span scheduler can bound later spans
// by the parked chain's earliest possible completion. The due assertion is
// the conservative protocol made executable: trySpan capped this span at
// entry+lookTicks, and every admissible target's latency covers at least
// that many ticks, so a post due inside its own span is a scheduler bug.
func (st *shardState) postInbox(s *Simulation, q QueueAgent, tok *token) {
	w := st.shard(q.ID())
	ln := &st.lanes[tok.home]
	lq, ok := q.(interface{ Latency() float64 })
	if !ok {
		panic(fmt.Sprintf("core: mid-span cross-shard hand-off to %T, want a latencied transit link", q))
	}
	if tok.stages[tok.idx].Hold != nil {
		panic(fmt.Sprintf("core: cross-shard stage on %s holds an occupancy — its calls would run on the wrong lane mid-span", q.Base().Name()))
	}
	lat := lq.Latency()
	post := ln.tick
	due := post + s.clock.TicksIn(lat)
	if due <= ln.spanEnd {
		panic(fmt.Sprintf("core: mid-span cross-shard post at tick %d due at %d, inside its own span (end %d) — lookahead bound violated",
			post, due, ln.spanEnd))
	}
	tok.parked = due
	ln.postSeq++
	e := mailEntry{q: q, t: &tok.task, due: due, post: post, lat: lat, src: ln.drainSrc, seq: ln.postSeq}
	ib := &st.inbox[w]
	ib.mu.Lock()
	ib.pend = append(ib.pend, e)
	ib.mu.Unlock()
}

// flushInbox applies every pending cross-shard inbox entry sequentially at
// the current tick, in sequential drain order. It runs at the application
// points outside lanes: the start of a root window (before the sources
// poll, so fault callbacks and probes read queues with all in-flight
// cross-shard work delivered) and a span exit that lands on a collector
// boundary or the run limit (before the snapshot, for the same reason).
// Every application point lies strictly before the earliest pending due
// tick — posts are due beyond their span's end, and these points are the
// first sequential instants after it — which the applyEntry audit checks.
func (st *shardState) flushInbox(s *Simulation) {
	for w := range st.inbox {
		ib := &st.inbox[w]
		if len(ib.pend) == 0 {
			continue
		}
		slices.SortFunc(ib.pend, cmpMail)
		for i := range ib.pend {
			st.applyEntry(s, &ib.pend[i])
			ib.pend[i] = mailEntry{}
		}
		ib.pend = ib.pend[:0]
	}
}

// laneState is one shard's lane: its window — the shard's private slice of
// the loop state during a stretched span — plus what only lanes need. A
// span deals the root window's calendar, active, pinned and drain sets and
// the lane-confined sources out to the lanes at the entry barrier, lets
// every lane run the window loop privately, and merges the lanes back in
// ascending shard order at the exit barrier. Everything a lane touches
// between barriers is owned by exactly one shard: its agents (per the
// shard assignment), its DC's flows (Local cascades only), its DC-confined
// sources, gauges interned per DC, and per-agent memo slots. The trailing
// pad keeps adjacent lanes off one cache line.
type laneState struct {
	window

	w       int32        // the lane's own shard index
	spanEnd simtime.Tick // the span's exit barrier tick
	limit   simtime.Tick // the run-level limit (full-sync detection)
	windows uint64       // lane windows run in the current span

	// inboxBatch holds the shard's pending inbox entries snapshotted at
	// span entry (already in sequential drain order); the lane applies
	// them first thing in its first window, at the span-entry tick —
	// always strictly before any entry's due tick, since every entry was
	// posted in an earlier span with due beyond that span's end. postSeq
	// is the lane's monotonic post counter.
	inboxBatch []mailEntry
	postSeq    uint64

	// mailApplied/mailMinSlack accumulate the shard's mailbox-safety audit
	// (entries applied; minimum due-minus-apply slack in ticks).
	mailApplied  uint64
	mailMinSlack simtime.Tick

	_ [64]byte
}

// trySpan decides whether the next window can instead run as a stretched
// span and, if so, executes it. The preconditions are exactly the cases
// where per-lane execution is provably equivalent to the root loop:
//
//   - a DC-to-shard routing table is installed (SetDCShards) — without it
//     nothing can be lane-confined;
//   - no agent registration is pending (rebind);
//   - no global source — a source not registered lane-confined, or
//     confined to an unmapped DC — comes due before the span would end;
//   - no cross-capable flow can complete a message chain inside the span:
//     chain-end completion re-enters non-lane-safe code (step expansion,
//     load balancing, RNG draws), so the span ends strictly before every
//     registered token's conservative chain-completion bound (tokenGuard);
//   - when any such token may still hop shards, the span additionally
//     stays within the installed WAN lookahead, so every mid-span post is
//     due beyond the span's end (see shardState.lookTicks).
//
// Under LoopFlags.NoCrossStretch the last two bounds collapse back to the
// binary guard: no span while any cross-capable flow is in flight.
//
// The span bound S is the earliest of: the run limit, the next collector
// boundary, the earliest global-source due tick, and the cross-token
// bounds. A span must cover at least two ticks to beat the classic window
// and clear the grain gate (shardState.pays) on ticks x live agents;
// otherwise the caller runs the window itself. The O(1) bounds come first,
// so the walk over the live cross tokens only happens for a span that would
// pay without them, and a walk that still refuses keeps the scheduler away
// for a growing number of windows — a refused trySpan costs a few
// comparisons.
func (s *Simulation) trySpan(limit simtime.Tick) bool {
	sh := s.sh
	if len(sh.dcLane) == 0 || s.rebind {
		return false
	}
	if sh.spanSkip > 0 { // backing off after a token walk that found no span
		sh.spanSkip--
		s.refused.backoff++
		return false
	}
	if sh.noCross && s.crossFlows != 0 {
		s.refused.token++
		return false
	}
	if sh.globDirty {
		sh.refreshGlobal(s)
	}
	now, live := s.clock.Now(), s.root.live
	S := min(limit, nextCollectBoundary(now, s.collectEvery))
	if sh.globMin <= now+1 && sh.globMin < S {
		s.refused.source++
		return false
	}
	S = min(S, sh.globMin)
	if S <= now+1 || !sh.pays(int(S-now)*live) {
		s.refused.grain++
		return false
	}
	if len(s.crossToks) > 0 {
		anyCross := false
		for _, tok := range s.crossToks {
			lb, mayCross := s.tokenGuard(tok)
			S = min(S, lb-1)
			anyCross = anyCross || mayCross
		}
		if anyCross && sh.lookTicks < neverTick {
			// Zero means the lookahead is not installed: no span while a
			// token may cross (the conservative PR 8 blocking).
			S = min(S, now+sh.lookTicks)
		}
		if S <= now+1 || !sh.pays(int(S-now)*live) {
			sh.spanBackoff = min(2*sh.spanBackoff+1, spanBackoffMax)
			sh.spanSkip = sh.spanBackoff
			s.refused.token++
			return false
		}
	}
	sh.spanBackoff = 0
	s.runSpan(S, limit)
	return true
}

// pays is the grain gate (see shardGrain): whether a span carrying that
// many agent advances is worth handing to the shard workers.
func (st *shardState) pays(work int) bool { return work >= st.grain }

// refreshGlobal recomputes the cached earliest global-source due tick,
// rebuilding the global-source list first when it was invalidated.
func (st *shardState) refreshGlobal(s *Simulation) {
	if st.glob == nil {
		st.glob = make([]int, 0, len(s.srcDC))
		for i, dc := range s.srcDC {
			if _, ok := st.dcLane[dc]; !ok || dc == "" {
				st.glob = append(st.glob, i)
			}
		}
	}
	st.globMin, st.globDirty = neverTick, false
	for _, i := range st.glob {
		st.globMin = min(st.globMin, s.srcDue[i])
	}
}

// tokenGuard derives, for one live cross-capable message token, a
// conservative lower bound lb on the tick its final stage can complete
// (spans must end strictly before it — chain-end completion is not
// lane-safe) and whether any of its remaining stage transitions still
// crosses shards (only then does the WAN-lookahead cap apply; an
// all-local-remaining chain, e.g. a daemon's intra-DC tail, never posts).
//
// The bound is the fast-forward arithmetic run in reverse: an event at
// least rem seconds after real time anchor·step cannot be observed before
// anchor + 1 + WholeTicksBefore(rem − ffGuard). rem sums, per remaining
// stage, a lower bound on its residence time:
//
//   - the current stage uses live task state — the latency countdown plus
//     the transfer at full (uncontended) rate for a latencied PS link, the
//     task's own service demand for a known-rate FCFS queue, the unmutated
//     fixed delay for a delay line — anchored at the tick that state was
//     advanced through (agentTick, or the stage-entry tick for the delay
//     line, whose heap state is not readable per-task);
//   - a token parked in an inbox anchors at its due tick: the latency
//     countdown runs from the posting tick regardless of when the entry
//     applies, and cannot have expired before due, so only the transfer
//     and later stages remain (the loop discounts one tick against the
//     ceil-rounded due, hence no +1 on this anchor);
//   - future stages contribute their declared delay, service demand at the
//     target's current rate when it exposes one, and transit latency —
//     all valid through the span because rates and latencies change only
//     at fault ticks, and the fault controller is a global source whose
//     due tick already bounds every span.
//
// Queues exposing no rate contribute zero — conservative, shrinking the
// bound, never overshooting it.
func (s *Simulation) tokenGuard(tok *token) (lb simtime.Tick, mayCross bool) {
	sh := s.sh
	stages := tok.stages
	idx := tok.idx
	cur := stages[idx].Queue
	prevW := sh.shard(cur.ID())
	rem := 0.0
	for i := idx + 1; i < len(stages); i++ {
		st := &stages[i]
		if st.Queue == nil {
			continue
		}
		w := sh.shard(st.Queue.ID())
		if w != prevW {
			mayCross = true
		}
		prevW = w
		rem += st.Delay
		if r, ok := st.Queue.(interface{ Rate() float64 }); ok {
			rem += st.Demand / r.Rate()
		}
		if l, ok := st.Queue.(interface{ Latency() float64 }); ok {
			rem += l.Latency()
		}
	}
	t := &tok.task
	if tok.parked != 0 {
		if r, ok := cur.(interface{ Rate() float64 }); ok {
			rem += t.Demand / r.Rate()
		}
		return tok.parked + s.clock.WholeTicksBefore(rem-ffGuard), mayCross
	}
	var anchor simtime.Tick
	r, hasRate := cur.(interface{ Rate() float64 })
	_, hasLat := cur.(interface{ Latency() float64 })
	switch {
	case hasRate && hasLat: // latencied PS link: live countdown, full-rate transfer
		anchor = s.agentTick[cur.ID()]
		rem += t.Delay + t.Demand/r.Rate()
	case hasRate: // FCFS with a known per-server rate: own service time
		anchor = s.agentTick[cur.ID()]
		rem += t.Demand / r.Rate()
	default:
		// Anchored at stage entry: the tick the enqueue happened at. A
		// delay line holds the task exactly its unmutated fixed delay; a
		// rateless queue contributes nothing (its declared stage delay is
		// ignored by FCFS, so counting it would overshoot the bound).
		anchor = tok.stageTick
		if _, ok := cur.(*DelayLine); ok {
			rem += t.Delay
		}
	}
	return anchor + 1 + s.clock.WholeTicksBefore(rem-ffGuard), mayCross
}

// runSpan executes one stretched span [T, S): deal the root window's state
// out to the per-shard lanes, run every lane's window loop concurrently up
// to S, and merge the lanes back — the only global barrier the covered
// windows pay. The global clock is parked at T while lanes run (each lane
// carries its own tick) and commits to S at the exit barrier.
func (s *Simulation) runSpan(S, limit simtime.Tick) {
	sh, root := s.sh, &s.root
	T := root.tick

	// Settle the root sequentially before partitioning: fold pending
	// invalidations into the calendar, drop active-list tombstones and
	// restore ascending order (lane active lists inherit sortedness).
	root.rekey()
	root.compact()

	// Partition. Lane calendars index the full agent population (cheap:
	// the pos slices persist across spans); entries, active IDs, drain
	// membership, pinned agents and confined sources deal out by ownership.
	for w := range sh.lanes {
		ln := &sh.lanes[w]
		ln.tick, ln.spanEnd, ln.limit, ln.windows = T, S, limit, 0
		ln.cal.grow(len(s.agents))
		ln.pinned = ln.pinned[:0]
		ln.srcIdx = ln.srcIdx[:0]
	}
	lane := func(id AgentID) *laneState { return &sh.lanes[sh.shard(id)] }
	for _, id := range root.active {
		ln := lane(id)
		ln.active = append(ln.active, id)
	}
	root.active = root.active[:0]
	for _, e := range root.cal.entries {
		lane(e.id).cal.set(e.id, e.key)
	}
	root.cal.clear()
	for _, id := range root.drainPend {
		ln := lane(id)
		ln.drainPend = append(ln.drainPend, id)
	}
	root.drainPend = root.drainPend[:0]
	for _, id := range root.pinned {
		ln := lane(id)
		ln.pinned = append(ln.pinned, id)
	}
	for i, dc := range s.srcDC {
		if w, ok := sh.dcLane[dc]; ok && dc != "" {
			sh.lanes[w].srcIdx = append(sh.lanes[w].srcIdx, i)
		}
	}
	for w := range sh.lanes {
		sh.lanes[w].srcMin = sh.lanes[w].minDue()
	}

	// Hand each shard's pending inbox entries to its lane, sorted into
	// sequential drain order; the lane applies them first thing in its
	// first window, at tick T — strictly before any entry's due tick,
	// since all of them were posted in an earlier span with due > T.
	// Mid-span posts land in the (empty again) inboxes for the next
	// application point.
	for w := range sh.inbox {
		ib := &sh.inbox[w]
		if len(ib.pend) == 0 {
			continue
		}
		slices.SortFunc(ib.pend, cmpMail)
		ln := &sh.lanes[w]
		ln.inboxBatch, ib.pend = ib.pend, ln.inboxBatch[:0]
	}

	// Run the lanes. Each executes the window loop privately up to S;
	// RunShards is the span's only barrier.
	sh.inSpan = true
	sh.runner.RunShards(sh.spanFn)
	sh.inSpan = false

	// Merge in ascending shard order — deterministic, and observationally
	// order-free anyway: lanes touch disjoint agents, flows and series.
	for w := range sh.lanes {
		ln := &sh.lanes[w]
		root.absorbSets(&ln.window)
		for _, e := range ln.cal.entries {
			root.cal.set(e.id, e.key)
		}
		ln.cal.clear()
		root.flows += ln.flows
		root.completed += ln.completed
		root.jumps += ln.jumps
		root.skipped += ln.skipped
		ln.flows, ln.completed, ln.jumps, ln.skipped = 0, 0, 0, 0
		ln.resp.MergeInto(root.resp)
		s.stretched += ln.windows
		sh.shardWindows[w] += ln.windows
	}
	root.srcMin = root.minDue()
	root.tick = s.clock.AdvanceBy(S - T)
	s.barriers++
	if S%s.collectEvery == 0 || S == limit {
		// The snapshot (and, at the limit, whatever runs after the loop)
		// reads queue counters, so in-flight cross-shard deliveries must
		// be in their queues first. Off-boundary span exits skip the
		// flush: pending entries carry into the next span's entry batch
		// or the next root window's flush, still ahead of their due
		// ticks.
		sh.flushInbox(s)
		if S%s.collectEvery == 0 {
			s.Collector.Snapshot(s.clock.NowSeconds())
		}
	}
}

// laneWindow drives one window of the production loop on a shard lane: the
// phases Simulation.runWindow runs on the root, restricted to one shard's
// agents. A stretched span is bit-identical to the root windows it
// replaces because the lane windows' operations are the global windows'
// operations restricted to one shard, and operations on different shards'
// agents commute (disjoint per-agent state, per-DC round-robin/RNG/gauges,
// disjoint response keys). What the lane driver adds to the shared phases:
// the entry batch, and advancing the involved agents inline — each lane
// has its own landing, so there is no engine round-trip.
func (s *Simulation) laneWindow(ln *laneState) {
	// Entry batch: cross-shard deliveries snapshotted at span entry apply
	// before anything else in the lane's first window, so they precede
	// every same-tick lane-local enqueue onto the same queues — the order
	// the sequential loop produced, where these tasks arrived whole ticks
	// ago. (Loaded only at span entry, so the batch is non-empty at most
	// in the first window.)
	for i := range ln.inboxBatch {
		s.sh.applyEntry(s, &ln.inboxBatch[i])
		ln.inboxBatch[i] = mailEntry{}
	}
	ln.inboxBatch = ln.inboxBatch[:0]

	ln.pollDue()
	ln.rekey()
	landing := ln.tick + ln.jump(ln.spanEnd)
	ln.popInvolved(landing, ln.limit)
	for _, id := range ln.inv {
		s.advanceAgentTo(id, landing)
	}
	ln.tick = landing
	// A cross-capable token whose next stage lives on another shard posts
	// to that shard's inbox from inside the drain, keyed by drainSrc.
	ln.drain()
	ln.retireIdle()
	ln.rekey()
	ln.windows++
}

// SetDCShards installs the data-center-to-shard routing table (normally
// topology.ShardPlan.DCShard) that lets the stretched-span scheduler
// resolve lane-confined flows and sources to their owning shard. Without
// it spans never form and every window runs on the root. It is a no-op
// when the sharded runtime is not engaged.
//
// Every lane-confined source (AddLaneSource) must name a data center in
// the table: an unmapped lane source would silently fall back to global
// treatment — its due ticks bounding every span — which is a wiring bug,
// not a tuning choice. SetDCShards validates the sources registered so
// far and AddLaneSource validates later registrations against the
// installed table, so the two orders of assembly are covered.
func (s *Simulation) SetDCShards(m map[string]int) {
	if s.sh == nil {
		return
	}
	t := make(map[string]int, len(m))
	for dc, w := range m {
		if w < 0 || w >= s.sh.n {
			panic(fmt.Sprintf("core: data center %q assigned to shard %d, have %d shards", dc, w, s.sh.n))
		}
		t[dc] = w
	}
	for i, dc := range s.srcDC {
		if dc == "" {
			continue
		}
		if _, ok := t[dc]; !ok {
			panic(fmt.Sprintf("core: lane-confined source %d bound to data center %q, which the shard plan does not partition (have %s)",
				i+1, dc, dcNames(t)))
		}
	}
	s.sh.dcLane = t
	s.sh.glob, s.sh.globDirty = nil, true
}

// dcNames renders the partitioned data-center names for error messages.
func dcNames(m map[string]int) string {
	names := make([]string, 0, len(m))
	for dc := range m {
		names = append(names, dc)
	}
	slices.Sort(names)
	return fmt.Sprintf("%v", names)
}

// SetShardLookahead installs the per-shard conservative lookahead bounds
// (normally topology.ShardPlan.LookaheadSec): for each shard, the minimum
// latency over all WAN links entering it from another shard. The runtime
// folds them to the global minimum in ticks — the span cap that keeps
// every mid-span cross-shard post due strictly beyond its span's end (see
// shardState.lookTicks). Shards with an infinite bound (nothing enters
// them) are skipped; with no finite bound at all, spans are uncapped
// because no cross-shard edge exists. Without this call, spans refuse to
// form while any cross-capable token may still hop shards — the
// conservative pre-lookahead behavior. It is a no-op when the sharded
// runtime is not engaged.
func (s *Simulation) SetShardLookahead(sec []float64) {
	if s.sh == nil {
		return
	}
	min := simtime.Tick(neverTick)
	for _, l := range sec {
		if math.IsInf(l, 1) {
			continue
		}
		if k := s.clock.TicksIn(l); k < min {
			min = k
		}
	}
	s.sh.lookTicks = min
}

// Sharded reports the shard count when the sharded runtime is engaged
// (ShardRunner engine, neither NoFastForward nor NoShards set).
func (s *Simulation) Sharded() (int, bool) {
	if s.sh == nil {
		return 0, false
	}
	return s.sh.n, true
}

// ShardSeed returns the derived RNG stream root of one shard
// (DeriveSeed(Config.Seed, shard)) — the seed shard-resident stochastic
// components draw from so their streams are independent of the
// sequential simulation RNG and of every other shard.
func (s *Simulation) ShardSeed(shard int) uint64 {
	if s.sh == nil || shard < 0 || shard >= s.sh.n {
		panic(fmt.Sprintf("core: shard %d out of range", shard))
	}
	return s.sh.seeds[shard]
}

// SetShardAssignment installs the AgentID-to-shard map, normally the
// per-datacenter partition from topology.PartitionByDC. Agents beyond the
// slice (registered later) fall back to ID modulo the shard count. The
// assignment affects locality only, never results; it is a no-op when the
// sharded runtime is not engaged.
func (s *Simulation) SetShardAssignment(assign []int32) {
	if s.sh == nil {
		return
	}
	for i, w := range assign {
		if w < 0 || int(w) >= s.sh.n {
			panic(fmt.Sprintf("core: agent %d assigned to shard %d, have %d shards", i, w, s.sh.n))
		}
	}
	s.sh.shardOf = append(s.sh.shardOf[:0], assign...)
}

// AgentCount reports the registered agent population, sizing external
// per-agent tables such as shard assignments.
func (s *Simulation) AgentCount() int { return len(s.agents) }
