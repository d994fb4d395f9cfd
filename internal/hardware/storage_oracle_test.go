package hardware

import (
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/queueing"
)

// The per-disk fork-join this package shipped until the lockstep lanes
// replaced it, kept verbatim (types renamed, the uncalled idle methods
// dropped, and StepN, like production's, trusting its caller instead of
// re-checking every queue) as the oracle of TestDiskArrayMatchesPerDiskOracle
// and FuzzDiskArrayMatchesPerDisk: one Qdcc -> Qhdd pipeline per spindle, n
// stripe tasks per request, one RNG draw per stripe whatever the hit rate.
// It shares the spec types, the ingress slab and the seed derivation with
// production, so an oracle agent and a production agent built in the same
// order on simulations of the same seed draw from identical RNG streams.

// oracleDiskUnit is the Qdcc -> Qhdd pipeline of one disk (Figs. 3-7, 3-8).
type oracleDiskUnit struct {
	dcc *queueing.FCFS
	hdd *queueing.FCFS
}

func newOracleDiskUnit(s DiskSpec) *oracleDiskUnit {
	return &oracleDiskUnit{
		dcc: queueing.NewFCFS(1, s.CtrlGbps*1e9/8),
		hdd: queueing.NewFCFS(1, s.MBps*1e6),
	}
}

// oracleStripeSlab carries one stripe's task and its tracking record contiguously,
// so the task's payload points back into the same oracleForkSlab.
type oracleStripeSlab struct {
	task   queueing.Task
	fj     *oracleForkSlab
	stripe float64 // stripe byte demand
	disk   int     // owning disk index
}

// oracleForkSlab is the whole state of one forked request: the join header and one
// stripe per disk of the owning array.
type oracleForkSlab struct {
	parent  *queueing.Task
	pending int
	stripes []oracleStripeSlab
}

// oracleArray implements the shared mechanics of RAID and SAN: an n-way
// fork-join of disk pipelines plus the cache-hit routing around them.
//
// Request state is recycled through two free lists owned by the array (and
// so by one agent): every slab on forkFree has pending == 0, i.e. each of
// its stripes has left every disk queue, and every slab on extFree has left
// the last controller stage. Only the owning agent's Enqueue and Step touch
// them, which the engines never run concurrently for one agent, so lanes
// need no locking. The lists grow to the peak number of requests in flight.
type oracleArray struct {
	disks    []*oracleDiskUnit
	diskSpec DiskSpec
	rng      *rand.Rand
	buffer   func(*queueing.Task) // parent-agent completion buffer
	forkFree []*oracleForkSlab
	extFree  []*extSlab
}

func newOracleArray(n int, spec DiskSpec, seed uint64, buffer func(*queueing.Task)) *oracleArray {
	a := &oracleArray{
		diskSpec: spec,
		rng:      rand.New(rand.NewPCG(core.DeriveSeed(seed, 1), core.DeriveSeed(seed, 2))),
		buffer:   buffer,
	}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, newOracleDiskUnit(spec))
	}
	return a
}

// admit wraps an external request into an ingress slab whose task the
// caller enqueues at its first controller stage.
func (a *oracleArray) admit(t *queueing.Task) *extSlab {
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
func (a *oracleArray) release(e *extSlab) {
	e.parent = nil
	a.extFree = append(a.extFree, e)
}

// fork splits the external request across all disks with striped demand and
// recycles its ingress slab.
func (a *oracleArray) fork(e *extSlab) {
	var fj *oracleForkSlab
	if n := len(a.forkFree); n > 0 {
		fj = a.forkFree[n-1]
		a.forkFree = a.forkFree[:n-1]
	} else {
		fj = &oracleForkSlab{stripes: make([]oracleStripeSlab, len(a.disks))}
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
func (a *oracleArray) step(dt float64) {
	for _, d := range a.disks {
		if !d.dcc.Idle() {
			d.dcc.Step(dt, a.onDiskCtrlDone)
		}
		if !d.hdd.Idle() {
			d.hdd.Step(dt, a.onDriveDone)
		}
	}
}

func (a *oracleArray) onDiskCtrlDone(t *queueing.Task) {
	s := t.Payload.(*oracleStripeSlab)
	if a.rng.Float64() < a.diskSpec.HitRate {
		a.join(s.fj)
		return
	}
	t.Demand = s.stripe
	a.disks[s.disk].hdd.Enqueue(t)
}

func (a *oracleArray) onDriveDone(t *queueing.Task) {
	a.join(t.Payload.(*oracleStripeSlab).fj)
}

// join accounts one finished stripe; the last one completes the parent and
// returns the slab to the free list.
func (a *oracleArray) join(fj *oracleForkSlab) {
	fj.pending--
	if fj.pending == 0 {
		a.buffer(fj.parent)
		fj.parent = nil
		a.forkFree = append(a.forkFree, fj)
	}
}

// bulkStep advances every disk pipeline through n quiet ticks in bulk.
// BulkStep on an idle queue returns immediately, so no elision is needed.
func (a *oracleArray) bulkStep(n int, dt float64) {
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
func (a *oracleArray) horizon() float64 {
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
func (a *oracleArray) derate(factor float64) {
	rate := a.diskSpec.MBps * 1e6 * factor
	for _, d := range a.disks {
		d.hdd.SetRate(rate)
	}
}

// takeDriveBusy returns drive busy seconds summed over disks and drains the
// controller-cache accumulators.
func (a *oracleArray) takeDriveBusy() float64 {
	b := 0.0
	for _, d := range a.disks {
		b += d.hdd.TakeBusy()
		d.dcc.TakeBusy()
	}
	return b
}

// oracleStore is a RAID or a SAN over the per-disk array. The controller
// stages ahead of the disks are code the lanes did not touch, so they are
// written once for both agents instead of copied: a slip here shows as a
// mismatch against production, which is the test failing safe.
type oracleStore struct {
	core.AgentBase
	stages   []*queueing.FCFS    // RAID: dacc. SAN: fcsw, dacc, fcal
	done     []queueing.DoneFunc // what leaving each stage does
	cache    int                 // index of dacc, where the array-cache draw happens
	hitRate  float64
	array    *oracleArray
	rng      *rand.Rand
	inflight int
}

func newOracleRAID(sim *core.Simulation, name string, spec RAIDSpec) *oracleStore {
	return newOracleStore(sim, name, spec.Disks, spec.Disk, spec.HitRate, tagRAID, tagRAIDArray, 0, spec.CtrlGbps)
}

func newOracleSAN(sim *core.Simulation, name string, spec SANSpec) *oracleStore {
	return newOracleStore(sim, name, spec.Disks, spec.Disk, spec.HitRate, tagSAN, tagSANArray, 1,
		spec.FCSwitchGbps, spec.CtrlGbps, spec.FCALGbps)
}

func newOracleStore(sim *core.Simulation, name string, disks int, disk DiskSpec, hitRate float64,
	tag, arrayTag uint64, cache int, gbps ...float64) *oracleStore {
	id := sim.NextAgentID()
	o := &oracleStore{
		cache:   cache,
		hitRate: hitRate,
		rng:     rand.New(rand.NewPCG(subSeed(sim, id, tag), subSeed(sim, id, tag+1))),
	}
	for i, g := range gbps {
		o.stages = append(o.stages, queueing.NewFCFS(1, g*1e9/8))
		o.done = append(o.done, o.leave(i))
	}
	o.stages[0].SetNotify(&o.AgentBase)
	o.array = newOracleArray(disks, disk, subSeed(sim, id, arrayTag), o.complete)
	o.InitAgent(id, name)
	sim.AddAgent(o)
	return o
}

// leave routes a request out of stage i: completed on an array-cache hit,
// forked after the last stage, otherwise on to the next stage with its
// demand restored.
func (o *oracleStore) leave(i int) queueing.DoneFunc {
	return func(t *queueing.Task) {
		e := t.Payload.(*extSlab)
		switch {
		case i == o.cache && o.rng.Float64() < o.hitRate:
			o.complete(e.parent)
			o.array.release(e)
		case i == len(o.stages)-1:
			o.array.fork(e)
		default:
			t.Demand = e.demand
			o.stages[i+1].Enqueue(t)
		}
	}
}

func (o *oracleStore) Enqueue(t *queueing.Task) {
	o.Sync()
	o.inflight++
	o.stages[0].Enqueue(&o.array.admit(t).task)
}

func (o *oracleStore) complete(t *queueing.Task) {
	o.inflight--
	o.BufferDone(t)
}

func (o *oracleStore) Step(dt float64) {
	if o.inflight == 0 {
		return
	}
	for i, q := range o.stages {
		if !q.Idle() {
			q.Step(dt, o.done[i])
		}
	}
	o.array.step(dt)
}

func (o *oracleStore) StepN(n int, dt float64) {
	if o.inflight == 0 {
		return
	}
	for _, q := range o.stages {
		q.BulkStep(n, dt)
	}
	o.array.bulkStep(n, dt)
}

func (o *oracleStore) Idle() bool { return o.inflight == 0 }

func (o *oracleStore) Horizon() float64 {
	if o.inflight == 0 {
		return math.Inf(1)
	}
	h := o.array.horizon()
	for _, q := range o.stages {
		if !q.Idle() {
			h = math.Min(q.Horizon(), h)
		}
	}
	return h
}

func (o *oracleStore) TakeBusy() float64 {
	for _, q := range o.stages {
		q.TakeBusy()
	}
	return o.array.takeDriveBusy()
}

func (o *oracleStore) Derate(factor float64) { o.array.derate(factor) }

var _ core.QueueAgent = (*oracleStore)(nil)
