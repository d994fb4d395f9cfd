package hardware

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/queueing"
)

// DiskSpec describes one disk: its controller-cache service speed, the
// mechanical drive throughput, and the controller-cache hit rate.
type DiskSpec struct {
	CtrlGbps float64 // disk controller cache speed (Qdcc)
	MBps     float64 // drive throughput (Qhdd)
	HitRate  float64 // cache hit rate at the disk controller
}

// validate states what a usable spec is as one conjunction and rejects
// everything else, so a NaN rate or hit rate — for which every comparison is
// false — is invalid, and so is an infinite rate. RAIDSpec and SANSpec do the
// same.
func (s DiskSpec) validate() error {
	if !(s.CtrlGbps > 0 && s.MBps > 0 && s.HitRate >= 0 && s.HitRate <= 1 && finite(s.CtrlGbps, s.MBps)) {
		return fmt.Errorf("hardware: invalid DiskSpec %+v", s)
	}
	return nil
}

// Component tags separating the RNG streams of the storage agents; each
// agent derives its seeds from (simulation seed, agent ID, tag) through
// core.DeriveSeed, so cache-hit decisions depend only on the simulation
// seed and the component's own identity.
const (
	tagRAID      = 1 // +1 for the second PCG word
	tagRAIDArray = 3
	tagSAN       = 4 // +1 for the second PCG word
	tagSANArray  = 6
)

// subSeed derives a component RNG seed from the simulation seed, the owning
// agent's identity and a component tag.
func subSeed(sim *core.Simulation, id core.AgentID, tag uint64) uint64 {
	return core.DeriveSeed(sim.Seed(), uint64(id)<<8|tag)
}

// extSlab tracks an external storage request through the array's ingress
// pipeline: the internal task that queues at the controller stages plus the
// caller's task and its original byte demand (stage queues consume
// task.Demand, so the fork needs the preserved value).
type extSlab struct {
	task   queueing.Task
	parent *queueing.Task
	demand float64
}

// forkSlab is the whole state of one forked request: the join header, the
// one task that stands for its n equal stripes at the controller caches, the
// stripe's solo service on an idle drive, and one drive task per lane of the
// owning array, filled in only when that lane enqueues the stripe. Every
// task's payload points back at the slab.
type forkSlab struct {
	parent  *queueing.Task
	pending int             // disks whose stripe has not joined yet
	stripe  float64         // stripe byte demand
	ctrl    queueing.Task   // the stripe at the controller caches
	solo    queueing.Solo   // the stripe alone on a drive, set as it leaves ctrl
	stripes []queueing.Task // the stripe at each lane's drive
}

// diskArray implements the shared mechanics of RAID and SAN: an n-way
// fork-join of Qdcc -> Qhdd disk pipelines (Figs. 3-7, 3-8) plus the
// cache-hit routing around them, stepped in lockstep wherever the n
// pipelines are provably in the same state (DESIGN.md "Lockstep disk
// lanes").
//
// The n controller caches are one queue, dcc: they are fed only by fork,
// which hands each the same stripe at the same instant, and they serve at
// one rate that is never derated, so they hold bit-identical state forever.
// The drives are lanes. A stripe leaving its controller cache hits the disk
// cache or goes to the drive on a draw from the array's own RNG; when that
// outcome is certain (DiskSpec.HitRate 0 or 1) the draw can change nothing
// and is skipped, all n drives see the same arrivals, and one lane of weight
// n stands for them. Otherwise there are n lanes of weight 1. The layout is
// fixed by the spec at construction.
//
// The array lives inside its store, and holds its queues by value: dcc
// itself, and the lanes as one slab made at construction at exact length,
// walked by index.
//
// Request state is recycled through two free lists owned by the array (and
// so by one agent): every slab on forkFree has pending == 0, i.e. each of
// its stripes has left every disk queue, and every slab on extFree has left
// the last controller stage. Only the owning agent's Enqueue and Step touch
// them, which the engines never run concurrently for one agent, so shard
// lanes need no locking. The lists grow to the peak number of requests in
// flight; forkMade and extMade count the slabs ever allocated, so a test can
// tell a balanced free list from a leaking one.
type diskArray struct {
	dcc      queueing.FCFS   // the n controller caches, in lockstep
	lanes    []queueing.FCFS // drive queues, each standing for weight disks
	weight   int
	disks    int
	ctrlDone []*forkSlab     // this tick's controller completions, in order
	misses   []*forkSlab     // one lane's stripes missing the disk cache this tick
	solos    []queueing.Solo // their solo services, in the same order
	served   int             // stripes step served in closed form (read by tests)
	diskSpec DiskSpec

	cacheHits // the disk caches' hits, at diskSpec.HitRate

	owner    *store // completes each request whose stripes have all joined
	forkFree []*forkSlab
	extFree  []*extSlab
	forkMade int
	extMade  int
}

// init sets the zero array a up in place for n disks of the given spec,
// drawing its disk-cache hits from seed, on behalf of owner.
func (a *diskArray) init(n int, spec DiskSpec, seed uint64, owner *store) {
	a.weight, a.disks, a.diskSpec, a.owner = 1, n, spec, owner
	a.misses = make([]*forkSlab, 0, 8)
	a.cacheHits.init(spec.HitRate, core.DeriveSeed(seed, 1), core.DeriveSeed(seed, 2))
	a.dcc.Init(1, spec.CtrlGbps*1e9/8)
	if !a.draw { // every drive sees the same stripes
		a.weight = n
	}
	a.lanes = make([]queueing.FCFS, n/a.weight)
	for i := range a.lanes {
		a.lanes[i].Init(1, spec.MBps*1e6)
	}
}

// admit wraps an external request into an ingress slab whose task the
// caller enqueues at its first controller stage.
func (a *diskArray) admit(t *queueing.Task) *extSlab {
	var e *extSlab
	if n := len(a.extFree); n > 0 {
		e = a.extFree[n-1]
		a.extFree = a.extFree[:n-1]
	} else {
		e = new(extSlab)
		a.extMade++
	}
	e.parent, e.demand = t, t.Demand
	e.task = queueing.Task{ID: t.ID, Demand: t.Demand, Payload: e}
	return e
}

// release recycles an ingress slab once its task has left the last
// controller stage (cache hit, or handed to fork).
func (a *diskArray) release(e *extSlab) {
	e.parent = nil
	a.extFree = append(a.extFree, e)
}

// fork splits the external request across all disks with striped demand —
// one task at the lockstep controller caches stands for the n stripes — and
// recycles its ingress slab.
func (a *diskArray) fork(e *extSlab) {
	var fj *forkSlab
	if n := len(a.forkFree); n > 0 {
		fj = a.forkFree[n-1]
		a.forkFree = a.forkFree[:n-1]
	} else {
		fj = &forkSlab{stripes: make([]queueing.Task, len(a.lanes))}
		a.forkMade++
	}
	fj.parent, fj.pending = e.parent, a.disks
	fj.stripe = e.demand / float64(a.disks)
	fj.ctrl = queueing.Task{ID: e.parent.ID, Demand: fj.stripe, Payload: fj}
	a.dcc.Enqueue(&fj.ctrl)
	a.release(e)
}

// step advances every disk pipeline one tick. The controller caches step
// once, collecting the tick's completions and each stripe's solo service on
// an idle drive — one division and one acceptance test per request, shared
// by every lane, since the lanes are derated together and so share one
// rate. Then the lanes are walked in disk order, each replaying those
// completions — draw, then join a hit or collect the lane's stripe as a
// miss — before its drive takes the misses and steps. That is the event,
// RNG-draw and join order of stepping disk 0's controller cache and drive,
// then disk 1's, and so on: pipelines do not interact except through the
// draw sequence and the join counts, and both see the same order. A drive
// that is idle and finishes every miss inside the tick serves them in
// closed form (FCFS.ServeSolos) and the lane joins them in order, which is
// the order its Step would have called back in; otherwise the lane's stripe
// tasks are filled in and enqueued and the drive steps. Idle drives with no
// misses are skipped: their Step is a strict no-op (nothing to fill,
// nothing in service, no busy time accrues). A tick on which no stripe left
// the controller caches hands the lanes nothing, so only the busy drives
// step.
func (a *diskArray) step(dt float64) {
	if !a.dcc.Idle() {
		a.dcc.Step(dt, a.onDiskCtrlDone)
	}
	if len(a.ctrlDone) == 0 {
		for i := range a.lanes {
			if hdd := &a.lanes[i]; !hdd.Idle() {
				hdd.Step(dt, a.onDriveDone)
			}
		}
		return
	}
	for i := range a.lanes {
		hdd := &a.lanes[i]
		misses, solos := a.misses[:0], a.solos[:0]
		for _, fj := range a.ctrlDone {
			if a.hit() {
				a.join(fj)
				continue
			}
			misses = append(misses, fj)
			solos = append(solos, fj.solo)
		}
		a.misses, a.solos = misses, solos
		if len(misses) > 0 && hdd.ServeSolos(solos, dt) {
			a.served += len(misses)
			for _, fj := range misses {
				a.join(fj)
			}
			continue
		}
		for _, fj := range misses {
			s := &fj.stripes[i]
			*s = queueing.Task{ID: fj.ctrl.ID, Demand: fj.stripe, Payload: fj}
			hdd.Enqueue(s)
		}
		if !hdd.Idle() {
			hdd.Step(dt, a.onDriveDone)
		}
	}
	clear(a.ctrlDone)
	a.ctrlDone = a.ctrlDone[:0]
}

func (a *diskArray) onDiskCtrlDone(t *queueing.Task) {
	fj := t.Payload.(*forkSlab)
	fj.solo = a.lanes[0].Solo(fj.stripe)
	a.ctrlDone = append(a.ctrlDone, fj)
}

// cacheHits decides whether an access hits a cache of hit rate p, on a draw
// from the cache's own RNG. A certain outcome (p 0 or 1) is decided once, at
// construction, and takes no draw: the RNG feeds nothing else, so its
// position is unobservable.
type cacheHits struct {
	rng    rand.PCG
	hitThr uint64 // hitThreshold(p)
	draw   bool   // the outcome is uncertain: each access draws
	hitAll bool   // when it is certain, whether every access hits
}

// init sets c up in place for hit rate p, its RNG seeded with (seed1, seed2).
func (c *cacheHits) init(p float64, seed1, seed2 uint64) {
	*c = cacheHits{hitThr: hitThreshold(p), draw: p != 0 && p != 1, hitAll: p == 1}
	c.rng.Seed(seed1, seed2)
}

func (c *cacheHits) hit() bool {
	if c.draw {
		return drawHit(&c.rng, c.hitThr)
	}
	return c.hitAll
}

func (a *diskArray) onDriveDone(t *queueing.Task) {
	a.join(t.Payload.(*forkSlab))
}

// join accounts the finished stripes of one lane; the last one completes the
// parent and returns the slab to the free list.
func (a *diskArray) join(fj *forkSlab) {
	fj.pending -= a.weight
	if fj.pending == 0 {
		a.owner.complete(fj.parent)
		fj.parent = nil
		a.forkFree = append(a.forkFree, fj)
	}
}

// bulkStep advances every disk pipeline through n quiet ticks in bulk.
// BulkStep on an idle queue returns immediately, so no elision is needed.
func (a *diskArray) bulkStep(n int, dt float64) {
	a.dcc.BulkStep(n, dt)
	for i := range a.lanes {
		a.lanes[i].BulkStep(n, dt)
	}
}

// horizon returns the time until the next event anywhere in the disk
// pipelines. Internal handoffs (controller cache to drive) count as events:
// they re-route work between queues, which the per-tick step semantics
// resolve, so a fast-forward jump must stop before them. Idle queues
// report +Inf and are skipped without the call.
func (a *diskArray) horizon() float64 {
	h := math.Inf(1)
	if !a.dcc.Idle() {
		h = a.dcc.Horizon()
	}
	for i := range a.lanes {
		if hdd := &a.lanes[i]; !hdd.Idle() {
			if q := hdd.Horizon(); q < h {
				h = q
			}
		}
	}
	return h
}

// derate scales every drive's service rate to factor times the spec rate
// (degraded-mode operation while a failed disk rebuilds). Controller caches
// keep full speed — electronics survive a spindle failure — which is what
// keeps them in lockstep. Absolute, not cumulative; factor 1 restores the
// spec rate.
func (a *diskArray) derate(factor float64) {
	rate := a.diskSpec.MBps * 1e6 * factor
	for i := range a.lanes {
		a.lanes[i].SetRate(rate)
	}
}

// takeDriveBusy returns drive busy seconds summed over disks and drains the
// controller-cache accumulator. A lane's value is added once per disk it
// stands for, in disk order: the float addition chain of summing n separate
// drives.
func (a *diskArray) takeDriveBusy() float64 {
	a.dcc.TakeBusy()
	b := 0.0
	for i := range a.lanes {
		v := a.lanes[i].TakeBusy()
		for range a.weight {
			b += v
		}
	}
	return b
}

// store is the body RAID and SAN share (Figs. 3-7, 3-8): a pipeline of
// single-server FCFS stages ahead of the disk array. A request enters at
// stage 0 and leaves each stage for the next with its byte demand restored;
// leaving the array controller cache (the stage at index cache) it completes
// on an array-cache hit, drawn from the store's own RNG unless the hit rate
// makes it certain, and after the last stage it forks across the disks. A
// RAID is the one-stage pipeline (dacc); a SAN wraps dacc in its
// fibre-channel switch and arbitrated loop (fcsw, dacc, fcal). The stages
// are one slab made at exact length and walked by index, and the disk array
// lives inside the store.
type store struct {
	core.AgentBase
	stages    []queueing.FCFS // RAID: dacc. SAN: fcsw, dacc, fcal
	cache     int             // index of dacc, where the array-cache hit is decided
	cacheHits                 // the array cache's hits
	array     diskArray
	inflight  int // external requests admitted and not yet completed
}

// init sets up the stages at the given speeds (Gbps) and the disk array in
// place and names the agent; the caller registers the agent that embeds the
// store.
// Only stage 0, the ingress, reports arrivals to the calendar (Arrive): the
// later stages and the disk queues are fed by internal handoffs inside the
// parallel Step phase and must not carry the hook.
func (s *store) init(sim *core.Simulation, name string, disks int, disk DiskSpec, hitRate float64,
	tag, arrayTag uint64, cache int, gbps ...float64) {
	id := sim.NextAgentID()
	s.cache = cache
	s.cacheHits.init(hitRate, subSeed(sim, id, tag), subSeed(sim, id, tag+1))
	s.stages = make([]queueing.FCFS, len(gbps))
	for i, g := range gbps {
		s.stages[i].Init(1, g*1e9/8)
	}
	s.stages[0].SetNotify(&s.AgentBase)
	s.array.init(disks, disk, subSeed(sim, id, arrayTag), s)
	s.InitAgent(id, name)
}

// leave routes a request out of stage i: completed on an array-cache hit,
// which bypasses the rest of the pipeline and the disks; forked after the
// last stage; otherwise on to the next stage with its demand restored.
func (s *store) leave(i int, t *queueing.Task) {
	e := t.Payload.(*extSlab)
	switch {
	case i == s.cache && s.hit():
		s.complete(e.parent)
		s.array.release(e)
	case i == len(s.stages)-1:
		s.array.fork(e)
	default:
		t.Demand = e.demand
		s.stages[i+1].Enqueue(t)
	}
}

// Enqueue admits a storage request (Demand in bytes) at stage 0, whose
// notify hook reports the arrival (Arrive); any ticks the bulk-dense loop
// deferred are replayed first.
func (s *store) Enqueue(t *queueing.Task) {
	s.Sync()
	s.inflight++
	s.stages[0].Enqueue(&s.array.admit(t).task)
}

// complete buffers a finished external request.
func (s *store) complete(t *queueing.Task) {
	s.inflight--
	s.BufferDone(t)
}

// Step advances the stages in pipeline order, then the disk pipelines. Idle
// stores return immediately — most arrays of a large platform are idle on
// most ticks — and idle stages are skipped: a request in flight occupies
// one stage at a time, so most of the pipeline is a strict no-op each tick.
func (s *store) Step(dt float64) {
	if s.inflight == 0 {
		return
	}
	for i := range s.stages {
		if q := &s.stages[i]; !q.Idle() {
			q.Step(dt, func(t *queueing.Task) { s.leave(i, t) })
		}
	}
	s.array.step(dt)
}

// StepN advances the whole store through n quiet ticks in bulk. Internal
// handoffs count as events (see Horizon), so none falls in the ticks
// (core.BulkStepper) and every queue replays its own accumulators.
func (s *store) StepN(n int, dt float64) {
	if s.inflight == 0 {
		return
	}
	for i := range s.stages {
		s.stages[i].BulkStep(n, dt)
	}
	s.array.bulkStep(n, dt)
}

// Idle reports whether the whole store is empty.
func (s *store) Idle() bool { return s.inflight == 0 }

// Horizon returns the time until the next event anywhere in the store: a
// stage or any disk pipeline.
func (s *store) Horizon() float64 {
	if s.inflight == 0 {
		return math.Inf(1)
	}
	h := s.array.horizon()
	for i := range s.stages {
		if q := &s.stages[i]; !q.Idle() {
			h = math.Min(q.Horizon(), h)
		}
	}
	return h
}

// TakeBusy returns drive busy seconds summed across disks since the last
// call (the mechanical bottleneck of the array) and drains the stages'.
func (s *store) TakeBusy() float64 {
	for i := range s.stages {
		s.stages[i].TakeBusy()
	}
	return s.array.takeDriveBusy()
}

// Disks returns the number of disks in the array.
func (s *store) Disks() int { return s.array.disks }

// Derate scales every drive's service rate to factor times the spec rate,
// modeling degraded-mode operation during a rebuild. Absolute against the
// spec, not cumulative; factor 1 restores full speed. In-service stripes
// finish their remaining bytes at the new rate. It must run in a sequential
// phase; it replays the ticks the loop deferred (Sync) before the change and
// rekeys the agent's calendar entry (MarkDirty) after it. Panics on factor
// outside (0, 1].
func (s *store) Derate(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("hardware: %s derate factor %v outside (0, 1]", s.Name(), factor))
	}
	s.Sync()
	s.array.derate(factor)
	s.MarkDirty()
}

// IsolatedCost returns the contention-free time one request of demand bytes
// spends in the store when every cache misses: its demand through each stage,
// a stripe through a disk controller cache and a drive, all at spec rates
// (stages are never derated), plus one forwarding step between each pair of
// queues it passes.
func (s *store) IsolatedCost(demand, step float64) float64 {
	total := 0.0
	for i := range s.stages {
		total += demand / s.stages[i].Rate()
	}
	d := s.array.diskSpec
	stripe := demand / float64(s.array.disks)
	return total + stripe/(d.CtrlGbps*1e9/8) + stripe/(d.MBps*1e6) + float64(len(s.stages)+1)*step
}

// RAIDSpec describes a redundant array of identical disks behind a disk
// array controller cache (Fig. 3-7).
type RAIDSpec struct {
	Disks    int
	Disk     DiskSpec
	CtrlGbps float64 // disk array controller cache speed (Qdacc)
	HitRate  float64 // cache hit rate at the array controller
}

func (s RAIDSpec) validate() error {
	if !(s.Disks > 0 && s.CtrlGbps > 0 && s.HitRate >= 0 && s.HitRate <= 1 && finite(s.CtrlGbps)) {
		return fmt.Errorf("hardware: invalid RAIDSpec %+v", s)
	}
	return s.Disk.validate()
}

// RAID models the array of Fig. 3-7: requests pass the array controller
// cache Qdacc; a cache hit completes immediately, a miss forks across all n
// disks (striped demand) and joins when the slowest stripe finishes.
type RAID struct {
	store
	spec RAIDSpec
}

// NewRAID creates and registers a RAID agent.
func NewRAID(sim *core.Simulation, name string, spec RAIDSpec) *RAID {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	r := &RAID{spec: spec}
	r.init(sim, name, spec.Disks, spec.Disk, spec.HitRate, tagRAID, tagRAIDArray, 0, spec.CtrlGbps)
	sim.AddAgent(r)
	return r
}

// Spec returns the array specification.
func (r *RAID) Spec() RAIDSpec { return r.spec }

// SANSpec describes a storage area network (Fig. 3-8): a fibre-channel
// switch, an array controller cache and a fibre-channel arbitrated loop
// ahead of the disk fork-join.
type SANSpec struct {
	Disks        int
	Disk         DiskSpec
	FCSwitchGbps float64 // Qfc-sw speed
	CtrlGbps     float64 // Qdacc speed
	FCALGbps     float64 // Qfc-al speed
	HitRate      float64 // cache hit rate at the array controller
}

func (s SANSpec) validate() error {
	if !(s.Disks > 0 && s.FCSwitchGbps > 0 && s.CtrlGbps > 0 && s.FCALGbps > 0 &&
		s.HitRate >= 0 && s.HitRate <= 1 && finite(s.FCSwitchGbps, s.CtrlGbps, s.FCALGbps)) {
		return fmt.Errorf("hardware: invalid SANSpec %+v", s)
	}
	return s.Disk.validate()
}

// SAN models the storage area network of Fig. 3-8. Requests traverse the
// fibre-channel switch and the array controller cache; a cache hit skips
// the arbitrated loop and the disks, a miss continues through the loop and
// forks across the disks.
type SAN struct {
	store
	spec SANSpec
}

// NewSAN creates and registers a SAN agent.
func NewSAN(sim *core.Simulation, name string, spec SANSpec) *SAN {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	s := &SAN{spec: spec}
	s.init(sim, name, spec.Disks, spec.Disk, spec.HitRate, tagSAN, tagSANArray, 1,
		spec.FCSwitchGbps, spec.CtrlGbps, spec.FCALGbps)
	sim.AddAgent(s)
	return s
}

// Spec returns the SAN specification.
func (s *SAN) Spec() SANSpec { return s.spec }

var (
	_ core.QueueAgent = (*RAID)(nil)
	_ core.QueueAgent = (*SAN)(nil)
)
