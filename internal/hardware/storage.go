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

func (s DiskSpec) validate() error {
	if s.CtrlGbps <= 0 || s.MBps <= 0 || s.HitRate < 0 || s.HitRate > 1 {
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

// diskUnit is the Qdcc -> Qhdd pipeline of one disk (Figs. 3-7, 3-8).
type diskUnit struct {
	dcc *queueing.FCFS
	hdd *queueing.FCFS
}

func newDiskUnit(s DiskSpec) *diskUnit {
	return &diskUnit{
		dcc: queueing.NewFCFS(1, s.CtrlGbps*1e9/8),
		hdd: queueing.NewFCFS(1, s.MBps*1e6),
	}
}

func (d *diskUnit) idle() bool { return d.dcc.Idle() && d.hdd.Idle() }

// extSlab tracks an external storage request through the array's ingress
// pipeline: the internal task that queues at the controller stages plus the
// caller's task and its original byte demand (stage queues consume
// task.Demand, so the fork needs the preserved value).
type extSlab struct {
	task   queueing.Task
	parent *queueing.Task
	demand float64
}

// stripeSlab carries one stripe's task and its tracking record contiguously,
// so the task's payload points back into the same forkSlab.
type stripeSlab struct {
	task   queueing.Task
	fj     *forkSlab
	stripe float64 // stripe byte demand
	disk   int     // owning disk index
}

// forkSlab is the whole state of one forked request: the join header and one
// stripe per disk of the owning array.
type forkSlab struct {
	parent  *queueing.Task
	pending int
	stripes []stripeSlab
}

// diskArray implements the shared mechanics of RAID and SAN: an n-way
// fork-join of disk pipelines plus the cache-hit routing around them.
//
// Request state is recycled through two free lists owned by the array (and
// so by one agent): every slab on forkFree has pending == 0, i.e. each of
// its stripes has left every disk queue, and every slab on extFree has left
// the last controller stage. Only the owning agent's Enqueue and Step touch
// them, which the engines never run concurrently for one agent, so lanes
// need no locking. The lists grow to the peak number of requests in flight.
type diskArray struct {
	disks    []*diskUnit
	diskSpec DiskSpec
	rng      *rand.Rand
	buffer   func(*queueing.Task) // parent-agent completion buffer
	forkFree []*forkSlab
	extFree  []*extSlab
}

func newDiskArray(n int, spec DiskSpec, seed uint64, buffer func(*queueing.Task)) *diskArray {
	a := &diskArray{
		diskSpec: spec,
		rng:      rand.New(rand.NewPCG(core.DeriveSeed(seed, 1), core.DeriveSeed(seed, 2))),
		buffer:   buffer,
	}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, newDiskUnit(spec))
	}
	return a
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

// fork splits the external request across all disks with striped demand and
// recycles its ingress slab.
func (a *diskArray) fork(e *extSlab) {
	var fj *forkSlab
	if n := len(a.forkFree); n > 0 {
		fj = a.forkFree[n-1]
		a.forkFree = a.forkFree[:n-1]
	} else {
		fj = &forkSlab{stripes: make([]stripeSlab, len(a.disks))}
	}
	fj.parent, fj.pending = e.parent, len(a.disks)
	stripe := e.demand / float64(len(a.disks))
	for i, d := range a.disks {
		s := &fj.stripes[i]
		s.fj, s.stripe, s.disk = fj, stripe, i
		s.task = queueing.Task{ID: e.parent.ID, Demand: stripe, Payload: s}
		d.dcc.Enqueue(&s.task)
	}
	a.release(e)
}

// step advances every disk pipeline, routing stripes from controller cache
// to drive (or past it on a disk-cache hit) and joining completions.
// Idle queues are skipped: their Step is a strict no-op (nothing to fill,
// nothing in service, no busy time accrues), and with one pipeline per
// spindle the empty calls dominate a busy array's per-tick cost — a
// request in flight usually occupies one or two of the 2n queues.
func (a *diskArray) step(dt float64) {
	for _, d := range a.disks {
		if !d.dcc.Idle() {
			d.dcc.Step(dt, a.onDiskCtrlDone)
		}
		if !d.hdd.Idle() {
			d.hdd.Step(dt, a.onDriveDone)
		}
	}
}

func (a *diskArray) onDiskCtrlDone(t *queueing.Task) {
	s := t.Payload.(*stripeSlab)
	if a.rng.Float64() < a.diskSpec.HitRate {
		a.join(s.fj)
		return
	}
	t.Demand = s.stripe
	a.disks[s.disk].hdd.Enqueue(t)
}

func (a *diskArray) onDriveDone(t *queueing.Task) {
	a.join(t.Payload.(*stripeSlab).fj)
}

// join accounts one finished stripe; the last one completes the parent and
// returns the slab to the free list.
func (a *diskArray) join(fj *forkSlab) {
	fj.pending--
	if fj.pending == 0 {
		a.buffer(fj.parent)
		fj.parent = nil
		a.forkFree = append(a.forkFree, fj)
	}
}

func (a *diskArray) idle() bool {
	for _, d := range a.disks {
		if !d.idle() {
			return false
		}
	}
	return true
}

// canBulk reports whether no disk pipeline produces an event within span.
// Idle queues trivially cannot (CanBulk on an empty queue is vacuously
// true), so only occupied pipelines pay the scan.
func (a *diskArray) canBulk(span float64) bool {
	for _, d := range a.disks {
		if !d.dcc.Idle() && !d.dcc.CanBulk(span) {
			return false
		}
		if !d.hdd.Idle() && !d.hdd.CanBulk(span) {
			return false
		}
	}
	return true
}

// bulkStep advances every disk pipeline through n quiet ticks in bulk.
// BulkStep on an idle queue returns immediately, so no elision is needed.
func (a *diskArray) bulkStep(n int, dt float64) {
	for _, d := range a.disks {
		d.dcc.BulkStep(n, dt)
		d.hdd.BulkStep(n, dt)
	}
}

// horizon returns the time until the next event anywhere in the disk
// pipelines. Internal handoffs (controller cache to drive) count as events:
// they re-route work between queues, which the per-tick step semantics
// resolve, so a fast-forward jump must stop before them. Idle queues
// report +Inf and are skipped without the call.
func (a *diskArray) horizon() float64 {
	h := math.Inf(1)
	for _, d := range a.disks {
		if !d.dcc.Idle() {
			if q := d.dcc.Horizon(); q < h {
				h = q
			}
		}
		if !d.hdd.Idle() {
			if q := d.hdd.Horizon(); q < h {
				h = q
			}
		}
	}
	return h
}

// derate scales every drive's service rate to factor times the spec rate
// (degraded-mode operation while a failed disk rebuilds). Controller caches
// keep full speed — electronics survive a spindle failure. Absolute, not
// cumulative; factor 1 restores the spec rate.
func (a *diskArray) derate(factor float64) {
	rate := a.diskSpec.MBps * 1e6 * factor
	for _, d := range a.disks {
		d.hdd.SetRate(rate)
	}
}

// takeDriveBusy returns drive busy seconds summed over disks and drains the
// controller-cache accumulators.
func (a *diskArray) takeDriveBusy() float64 {
	b := 0.0
	for _, d := range a.disks {
		b += d.hdd.TakeBusy()
		d.dcc.TakeBusy()
	}
	return b
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
	if s.Disks <= 0 || s.CtrlGbps <= 0 || s.HitRate < 0 || s.HitRate > 1 {
		return fmt.Errorf("hardware: invalid RAIDSpec %+v", s)
	}
	return s.Disk.validate()
}

// RAID models the array of Fig. 3-7: requests pass the array controller
// cache Qdacc; a cache hit completes immediately, a miss forks across all n
// disks (striped demand) and joins when the slowest stripe finishes.
type RAID struct {
	core.AgentBase
	spec     RAIDSpec
	dacc     *queueing.FCFS
	array    *diskArray
	rng      *rand.Rand
	inflight int // external requests admitted and not yet completed
}

// NewRAID creates and registers a RAID agent.
func NewRAID(sim *core.Simulation, name string, spec RAIDSpec) *RAID {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	id := sim.NextAgentID()
	r := &RAID{
		spec: spec,
		dacc: queueing.NewFCFS(1, spec.CtrlGbps*1e9/8),
		rng:  rand.New(rand.NewPCG(subSeed(sim, id, tagRAID), subSeed(sim, id, tagRAID+1))),
	}
	// The controller cache is the array's ingress: external enqueues (and
	// only those — the fork-join feeds the per-disk queues internally,
	// inside the parallel Step phase) forward the invalidation.
	r.dacc.SetNotify(r.MarkDirty)
	r.array = newDiskArray(spec.Disks, spec.Disk, subSeed(sim, id, tagRAIDArray), r.complete)
	r.InitAgent(id, name)
	sim.AddAgent(r)
	return r
}

// Spec returns the array specification.
func (r *RAID) Spec() RAIDSpec { return r.spec }

// Enqueue admits a storage request (Demand in bytes) at the array
// controller cache, whose notify hook forwards the invalidation; any ticks
// the bulk-dense loop deferred are replayed first.
func (r *RAID) Enqueue(t *queueing.Task) {
	r.Sync()
	r.inflight++
	r.dacc.Enqueue(&r.array.admit(t).task)
}

// complete buffers a finished external request.
func (r *RAID) complete(t *queueing.Task) {
	r.inflight--
	r.BufferDone(t)
}

// Step advances the controller cache, then the disk pipelines. Idle arrays
// return immediately: with a disk pipeline per spindle the per-tick cost of
// an idle RAID would otherwise dominate large sweeps. An idle controller
// cache is likewise skipped while stripes drain through the disks.
func (r *RAID) Step(dt float64) {
	if r.inflight == 0 {
		return
	}
	if !r.dacc.Idle() {
		r.dacc.Step(dt, r.onCtrlDone)
	}
	r.array.step(dt)
}

// StepN advances the whole array through n quiet ticks in bulk. The
// fallback is whole-agent per-tick stepping: an internal handoff re-routes
// work between queues mid-window, which only the tick-major order of Step
// resolves correctly.
func (r *RAID) StepN(n int, dt float64) {
	if r.inflight == 0 {
		return
	}
	span := float64(n) * dt
	if r.dacc.CanBulk(span) && r.array.canBulk(span) {
		r.dacc.BulkStep(n, dt)
		r.array.bulkStep(n, dt)
		return
	}
	for i := 0; i < n; i++ {
		r.Step(dt)
	}
}

func (r *RAID) onCtrlDone(t *queueing.Task) {
	e := t.Payload.(*extSlab)
	if r.rng.Float64() < r.spec.HitRate {
		r.complete(e.parent) // array-cache hit bypasses the fork-join
		r.array.release(e)
		return
	}
	r.array.fork(e)
}

// Idle reports whether the whole array is empty.
func (r *RAID) Idle() bool { return r.inflight == 0 }

// Horizon returns the time until the next event anywhere in the array:
// the controller cache or any disk pipeline.
func (r *RAID) Horizon() float64 {
	if r.inflight == 0 {
		return math.Inf(1)
	}
	h := r.array.horizon()
	if !r.dacc.Idle() {
		h = math.Min(r.dacc.Horizon(), h)
	}
	return h
}

// TakeBusy returns drive busy seconds summed across disks since the last
// call (the mechanical bottleneck of the array).
func (r *RAID) TakeBusy() float64 {
	r.dacc.TakeBusy()
	return r.array.takeDriveBusy()
}

// Disks returns the number of disks in the array.
func (r *RAID) Disks() int { return r.spec.Disks }

// Derate scales every drive's service rate to factor times the spec rate,
// modeling degraded-mode operation during a rebuild. Absolute against the
// spec, not cumulative; factor 1 restores full speed. In-service stripes
// finish their remaining bytes at the new rate. Callers must invoke it
// from a sequential phase and bracket it with Sync/MarkDirty on this
// agent, which the fault library does. Panics on factor outside (0, 1].
func (r *RAID) Derate(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("hardware: RAID derate factor %v outside (0, 1]", factor))
	}
	r.array.derate(factor)
}

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
	if s.Disks <= 0 || s.FCSwitchGbps <= 0 || s.CtrlGbps <= 0 || s.FCALGbps <= 0 ||
		s.HitRate < 0 || s.HitRate > 1 {
		return fmt.Errorf("hardware: invalid SANSpec %+v", s)
	}
	return s.Disk.validate()
}

// SAN models the storage area network of Fig. 3-8. Requests traverse the
// fibre-channel switch and the array controller cache; a cache hit skips
// the arbitrated loop and the disks, a miss continues through the loop and
// forks across the disks.
type SAN struct {
	core.AgentBase
	spec     SANSpec
	fcsw     *queueing.FCFS
	dacc     *queueing.FCFS
	fcal     *queueing.FCFS
	array    *diskArray
	rng      *rand.Rand
	inflight int // external requests admitted and not yet completed
}

// NewSAN creates and registers a SAN agent.
func NewSAN(sim *core.Simulation, name string, spec SANSpec) *SAN {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	id := sim.NextAgentID()
	s := &SAN{
		spec: spec,
		fcsw: queueing.NewFCFS(1, spec.FCSwitchGbps*1e9/8),
		dacc: queueing.NewFCFS(1, spec.CtrlGbps*1e9/8),
		fcal: queueing.NewFCFS(1, spec.FCALGbps*1e9/8),
		rng:  rand.New(rand.NewPCG(subSeed(sim, id, tagSAN), subSeed(sim, id, tagSAN+1))),
	}
	// The FC switch is the SAN's ingress; the downstream queues (dacc,
	// fcal, disks) are fed by internal handoffs inside the parallel Step
	// phase and must not carry the hook.
	s.fcsw.SetNotify(s.MarkDirty)
	s.array = newDiskArray(spec.Disks, spec.Disk, subSeed(sim, id, tagSANArray), s.complete)
	s.InitAgent(id, name)
	sim.AddAgent(s)
	return s
}

// Spec returns the SAN specification.
func (s *SAN) Spec() SANSpec { return s.spec }

// Enqueue admits a storage request (Demand in bytes) at the FC switch,
// whose notify hook forwards the invalidation; any ticks the bulk-dense
// loop deferred are replayed first.
func (s *SAN) Enqueue(t *queueing.Task) {
	s.Sync()
	s.inflight++
	s.fcsw.Enqueue(&s.array.admit(t).task)
}

// complete buffers a finished external request.
func (s *SAN) complete(t *queueing.Task) {
	s.inflight--
	s.BufferDone(t)
}

// Step advances the FC switch, controller cache, arbitrated loop and the
// disk pipelines in pipeline order. Idle SANs return immediately, and
// idle stage queues are skipped — a request in flight occupies one stage
// at a time, so most of the pipeline is a strict no-op each tick.
func (s *SAN) Step(dt float64) {
	if s.inflight == 0 {
		return
	}
	if !s.fcsw.Idle() {
		s.fcsw.Step(dt, s.onFCSwitchDone)
	}
	if !s.dacc.Idle() {
		s.dacc.Step(dt, s.onCtrlDone)
	}
	if !s.fcal.Idle() {
		s.fcal.Step(dt, s.onLoopDone)
	}
	s.array.step(dt)
}

// StepN advances the whole SAN through n quiet ticks in bulk, with the
// same whole-agent fallback rationale as RAID.StepN.
func (s *SAN) StepN(n int, dt float64) {
	if s.inflight == 0 {
		return
	}
	span := float64(n) * dt
	if s.fcsw.CanBulk(span) && s.dacc.CanBulk(span) && s.fcal.CanBulk(span) && s.array.canBulk(span) {
		s.fcsw.BulkStep(n, dt)
		s.dacc.BulkStep(n, dt)
		s.fcal.BulkStep(n, dt)
		s.array.bulkStep(n, dt)
		return
	}
	for i := 0; i < n; i++ {
		s.Step(dt)
	}
}

func (s *SAN) onFCSwitchDone(t *queueing.Task) {
	t.Demand = t.Payload.(*extSlab).demand
	s.dacc.Enqueue(t)
}

func (s *SAN) onCtrlDone(t *queueing.Task) {
	e := t.Payload.(*extSlab)
	if s.rng.Float64() < s.spec.HitRate {
		s.complete(e.parent) // cache hit bypasses loop and disks
		s.array.release(e)
		return
	}
	t.Demand = e.demand
	s.fcal.Enqueue(t)
}

func (s *SAN) onLoopDone(t *queueing.Task) {
	s.array.fork(t.Payload.(*extSlab))
}

// Idle reports whether the whole SAN is empty.
func (s *SAN) Idle() bool { return s.inflight == 0 }

// Horizon returns the time until the next event anywhere in the SAN
// pipeline: FC switch, controller cache, arbitrated loop or disks.
func (s *SAN) Horizon() float64 {
	if s.inflight == 0 {
		return math.Inf(1)
	}
	h := s.array.horizon()
	if !s.fcsw.Idle() {
		h = math.Min(s.fcsw.Horizon(), h)
	}
	if !s.dacc.Idle() {
		h = math.Min(s.dacc.Horizon(), h)
	}
	if !s.fcal.Idle() {
		h = math.Min(s.fcal.Horizon(), h)
	}
	return h
}

// TakeBusy returns drive busy seconds summed across disks since last call.
func (s *SAN) TakeBusy() float64 {
	s.fcsw.TakeBusy()
	s.dacc.TakeBusy()
	s.fcal.TakeBusy()
	return s.array.takeDriveBusy()
}

// Disks returns the number of disks in the SAN.
func (s *SAN) Disks() int { return s.spec.Disks }

// Derate scales every drive's service rate to factor times the spec rate,
// with the same contract as RAID.Derate.
func (s *SAN) Derate(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("hardware: SAN derate factor %v outside (0, 1]", factor))
	}
	s.array.derate(factor)
}

var (
	_ core.QueueAgent = (*RAID)(nil)
	_ core.QueueAgent = (*SAN)(nil)
)
