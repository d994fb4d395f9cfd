package hardware

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/queueing"
)

// request drives one storage request through its whole life inside the
// agent: enqueue, step to idle, drain.
func request(a core.QueueAgent, t *queueing.Task, demand, dt float64) {
	t.Demand = demand
	a.Enqueue(t)
	for !a.Idle() {
		a.Step(dt)
	}
	a.Drain(func(*queueing.Task) {})
}

// A storage request in steady state — after one warm-up request sized the
// free lists and the queues — allocates nothing, on the fork path and on the
// cache-hit path alike.
func TestStorageRequestSteadyStateAllocs(t *testing.T) {
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0.5}
	check := func(name string, hit float64, a core.QueueAgent, array *diskArray) {
		task := &queueing.Task{ID: 1}
		one := func() { request(a, task, 1<<20, 0.01) }
		one() // warm-up
		if n := testing.AllocsPerRun(50, one); n != 0 {
			t.Errorf("%s request at array hit rate %v: %v allocs, want 0", name, hit, n)
		}
		checkIdleBalance(t, array, 0)
	}
	for _, hit := range []float64{0, 1} {
		s := core.NewSimulation(core.Config{Seed: 1})
		r := NewRAID(s, "raid", RAIDSpec{Disks: 8, Disk: disk, CtrlGbps: 4, HitRate: hit})
		check("RAID", hit, r, &r.array)
		san := NewSAN(s, "san", SANSpec{Disks: 20, Disk: disk,
			FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: hit})
		check("SAN", hit, san, &san.array)
	}
}

// checkFreeLists asserts the free-list invariant: a slab on a list is
// quiescent (no stripe pending, no parent) and is there once.
func checkFreeLists(t testing.TB, a *diskArray) {
	t.Helper()
	seen := map[*forkSlab]bool{}
	for _, fj := range a.forkFree {
		if fj.pending != 0 || fj.parent != nil {
			t.Fatalf("free fork slab with pending=%d parent=%v", fj.pending, fj.parent)
		}
		if seen[fj] {
			t.Fatal("fork slab freed twice")
		}
		seen[fj] = true
	}
	ext := map[*extSlab]bool{}
	for _, e := range a.extFree {
		if e.parent != nil || ext[e] {
			t.Fatalf("free ingress slab still bound (parent=%v) or freed twice", e.parent)
		}
		ext[e] = true
	}
}

// runOverlapping pushes n overlapping requests of varied sizes through a
// RAID and returns "id@tick" per completion, in completion order. With
// fresh set, the free lists are emptied after every call into the agent, so
// every request takes newly allocated slabs — the behaviour recycling must
// reproduce exactly: a slab handed out while one of its stripes was still
// queued would corrupt that stripe's demand or join and move a completion.
func runOverlapping(t *testing.T, diskHit float64, fresh bool) []string {
	t.Helper()
	const n = 300
	s := core.NewSimulation(core.Config{Seed: 3})
	r := NewRAID(s, "raid", RAIDSpec{
		Disks: 6, CtrlGbps: 4, HitRate: 0.3,
		Disk: DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: diskHit},
	})
	forget := func() {
		checkFreeLists(t, &r.array)
		if fresh {
			r.array.forkFree, r.array.extFree = nil, nil
		}
	}
	tasks := make([]queueing.Task, n)
	completed := make([]int, n)
	var log []string
	next := 0
	for tick := 0; next < n || !r.Idle(); tick++ {
		// Two arrivals every other tick keep a dozen requests in flight.
		for k := 0; k < 2 && tick%2 == 0 && next < n; k++ {
			tasks[next] = queueing.Task{ID: uint64(next + 1), Demand: float64(1+next%7) * 300e3}
			r.Enqueue(&tasks[next])
			next++
			forget()
		}
		r.Step(0.01)
		forget()
		r.Drain(func(task *queueing.Task) {
			i := int(task.ID - 1)
			if task != &tasks[i] {
				t.Fatalf("completion handed back a task that is not parent %d", i)
			}
			completed[i]++
			log = append(log, fmt.Sprintf("%d@%d", task.ID, tick))
		})
		if tick > 100000 {
			t.Fatal("array never drained")
		}
	}
	for i, c := range completed {
		if c != 1 {
			t.Fatalf("parent %d completed %d times, want exactly once", i, c)
		}
	}
	if !fresh {
		checkIdleBalance(t, &r.array, r.inflight)
		if len(r.array.forkFree) == 0 && diskHit < 1 {
			t.Error("no fork slab ever returned to the free list")
		}
		if len(r.array.forkFree) >= n/2 {
			t.Errorf("%d fork slabs for %d requests: slabs are not being reused", len(r.array.forkFree), n)
		}
	}
	return log
}

// Many overlapping requests — array-cache hits and misses mixed, disk-cache
// hit rates 0, 0.5 and 1 — complete exactly once each, and at exactly the
// ticks they complete at when no slab is ever reused.
func TestForkJoinRecyclingMatchesFreshSlabs(t *testing.T) {
	for _, diskHit := range []float64{0, 0.5, 1} {
		recycled := runOverlapping(t, diskHit, false)
		fresh := runOverlapping(t, diskHit, true)
		if len(recycled) != len(fresh) {
			t.Fatalf("disk hit rate %v: %d completions recycled, %d fresh", diskHit, len(recycled), len(fresh))
		}
		for i := range fresh {
			if recycled[i] != fresh[i] {
				t.Fatalf("disk hit rate %v: completion %d is %s recycled, %s with fresh slabs",
					diskHit, i, recycled[i], fresh[i])
			}
		}
	}
}

// holdAndRelease keeps depth overlapping holds of sizes no float at the
// occupied magnitude represents exactly, first in first out, then releases
// everything. A balanced history must end at zero.
func holdAndRelease(m *Memory, unit float64, depth int) {
	var held []float64
	for i := 0; i < 100000; i++ {
		b := unit * float64(1+i%5)
		m.Acquire(b)
		held = append(held, b)
		if len(held) > depth {
			m.Release(held[0])
			held = held[1:]
		}
	}
	for _, b := range held {
		m.Release(b)
	}
}

// Gigabytes counted in bytes round at ~1e-6 per operation, so a balanced
// history can end a few ulps below zero; that is residue, not imbalance.
func TestMemoryReleaseToleratesRoundingResidue(t *testing.T) {
	for _, unit := range []float64{1e9 / 3, 1e9 / 7, 2.4e9 / 7} {
		for _, depth := range []int{10, 25, 40} {
			m := newMemory(64e9, 0, 1)
			holdAndRelease(m, unit, depth) // panics on a false over-release
			if m.Peak() < 4e9 {
				t.Fatalf("unit %v depth %d peaked at %v, below the gigabyte range under test", unit, depth, m.Peak())
			}
			if u := m.Used(); u < 0 || u > 1e-3 {
				t.Errorf("unit %v depth %d: balanced history ends at %v bytes, want zero", unit, depth, u)
			}
		}
	}
}

// A release that is really unbalanced — one small message too many after
// gigabytes of traffic — still panics.
func TestMemoryUnbalancedReleasePanicsAtScale(t *testing.T) {
	m := newMemory(64e9, 0, 1)
	holdAndRelease(m, 2.4e9/7, 10)
	defer func() {
		if recover() == nil {
			t.Error("releasing 64 bytes never acquired did not panic")
		}
	}()
	m.Release(64)
}
