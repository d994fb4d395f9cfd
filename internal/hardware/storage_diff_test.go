package hardware

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/queueing"
)

// storeAgent is what the differential driver needs of RAID, SAN and their
// per-disk oracle.
type storeAgent interface {
	core.QueueAgent
	core.BulkStepper
	TakeBusy() float64
	Derate(factor float64)
}

// storeCase names one array under differential test and the tick at which
// its drives are derated (restored derateTicks later).
type storeCase struct {
	san               bool
	disks             int
	diskHit, arrayHit float64
	seed              uint64
	derateAt          int
}

func (c storeCase) String() string {
	kind := "RAID"
	if c.san {
		kind = "SAN"
	}
	return fmt.Sprintf("%s disks=%d diskHit=%v arrayHit=%v seed=%d derateAt=%d",
		kind, c.disks, c.diskHit, c.arrayHit, c.seed, c.derateAt)
}

// build returns the production agent with its disk array, and the oracle
// agent, each first on its own simulation of the same seed so both derive
// the same RNG streams.
func (c storeCase) build() (storeAgent, *diskArray, storeAgent) {
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: c.diskHit}
	prod, ref := core.NewSimulation(core.Config{Seed: c.seed}), core.NewSimulation(core.Config{Seed: c.seed})
	if c.san {
		spec := SANSpec{Disks: c.disks, Disk: disk, FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: c.arrayHit}
		s := NewSAN(prod, "store", spec)
		return s, &s.array, newOracleSAN(ref, "store", spec)
	}
	spec := RAIDSpec{Disks: c.disks, Disk: disk, CtrlGbps: 4, HitRate: c.arrayHit}
	r := NewRAID(prod, "store", spec)
	return r, &r.array, newOracleRAID(ref, "store", spec)
}

// arrival is one request of a schedule: gap ticks after the previous one.
type arrival struct {
	gap    int
	demand float64
}

const (
	diffDT      = 0.005
	derateTicks = 120 // degraded-mode duration
	busyPeriod  = 50  // ticks per collector period
)

// checkIdleBalance is the idle-balance audit: once the owning agent has no
// request in flight, every queue of the array is empty, every slab the array
// ever allocated is back on its free list, quiescent and there once, and the
// per-tick completion buffer pins nothing.
func checkIdleBalance(t testing.TB, a *diskArray, inflight int) {
	t.Helper()
	if inflight != 0 {
		return
	}
	if !a.dcc.Idle() {
		t.Fatal("idle array with work at the controller caches")
	}
	for i, hdd := range a.lanes {
		if !hdd.Idle() {
			t.Fatalf("idle array with work on drive lane %d", i)
		}
	}
	checkFreeLists(t, a)
	if len(a.forkFree) != a.forkMade || len(a.extFree) != a.extMade {
		t.Fatalf("idle array holds %d of %d fork slabs and %d of %d ingress slabs on its free lists",
			len(a.forkFree), a.forkMade, len(a.extFree), a.extMade)
	}
	for _, fj := range a.ctrlDone[:cap(a.ctrlDone)] {
		if fj != nil {
			t.Fatal("controller completion buffer still holds a slab between ticks")
		}
	}
}

// diffStores drives the lane array and the per-disk oracle through one
// schedule with identical calls — overlapping arrivals, Step interleaved with
// windows replayed in StepN chunks, a derate and its restore — and compares,
// with no tolerance, the drained completion order, Horizon bits and Idle
// after every call and TakeBusy bits once per collector period. It returns
// the array for the caller to read which drive paths the schedule took.
func diffStores(t testing.TB, c storeCase, sched []arrival) *diskArray {
	t.Helper()
	got, array, want := c.build()
	gotTasks, wantTasks := make([]queueing.Task, len(sched)), make([]queueing.Task, len(sched))
	inflight, next, due := 0, 0, 0
	if len(sched) > 0 {
		due = sched[0].gap
	}
	var gotDone, wantDone []uint64
	derate := []struct {
		at int
		to float64
	}{{c.derateAt, 0.4}, {c.derateAt + derateTicks, 1}}
	for tick := 0; next < len(sched) || !want.Idle(); {
		for ; next < len(sched) && due <= tick; next++ {
			gotTasks[next] = queueing.Task{ID: uint64(next + 1), Demand: sched[next].demand}
			wantTasks[next] = gotTasks[next]
			got.Enqueue(&gotTasks[next])
			want.Enqueue(&wantTasks[next])
			inflight++
			if next+1 < len(sched) {
				due += sched[next+1].gap
			}
		}
		// Windows stride over ticks, so the derate and its restore take
		// effect at the first call boundary at or after their tick.
		if len(derate) > 0 && tick >= derate[0].at {
			got.Derate(derate[0].to)
			want.Derate(derate[0].to)
			derate = derate[1:]
		}
		// Every fifth call is a window of 2 to 9 ticks, replayed as the
		// production loop replays a lazy agent (advance).
		n := 1
		if tick%5 == 3 {
			n = 2 + tick%8
			advance(t, n, diffDT, got, want)
		} else {
			got.Step(diffDT)
			want.Step(diffDT)
		}
		period := tick / busyPeriod
		tick += n

		gotDone, wantDone = gotDone[:0], wantDone[:0]
		got.Drain(func(task *queueing.Task) { gotDone = append(gotDone, task.ID) })
		want.Drain(func(task *queueing.Task) { wantDone = append(wantDone, task.ID) })
		if !slices.Equal(gotDone, wantDone) {
			t.Fatalf("%v: tick %d drained %v, per-disk oracle %v", c, tick, gotDone, wantDone)
		}
		inflight -= len(gotDone)
		if g, w := got.Horizon(), want.Horizon(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%v: tick %d horizon %v, per-disk oracle %v", c, tick, g, w)
		}
		if got.Idle() != want.Idle() {
			t.Fatalf("%v: tick %d idle %v, per-disk oracle %v", c, tick, got.Idle(), want.Idle())
		}
		if tick/busyPeriod != period {
			diffBusy(t, c, tick, got, want)
		}
		checkIdleBalance(t, array, inflight)
		if tick > 1e6 {
			t.Fatalf("%v: never drained", c)
		}
	}
	diffBusy(t, c, -1, got, want)
	if inflight != 0 || !got.Idle() {
		t.Fatalf("%v: drained with %d requests unaccounted for", c, inflight)
	}
	checkIdleBalance(t, array, 0)
	return array
}

// drivePaths splits the stripes an array's drive lanes received into those
// served in closed form and those enqueued and stepped.
func drivePaths(a *diskArray) (closed, stepped int) {
	for _, hdd := range a.lanes {
		stepped += int(hdd.Arrivals())
	}
	return a.served, stepped - a.served
}

func diffBusy(t testing.TB, c storeCase, tick int, got, want storeAgent) {
	t.Helper()
	if g, w := got.TakeBusy(), want.TakeBusy(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%v: tick %d drive busy %v (%#x), per-disk oracle %v (%#x)",
			c, tick, g, math.Float64bits(g), w, math.Float64bits(w))
	}
}

// The lockstep-lane disk array is the per-disk fork-join, bit for bit: both
// lane layouts (one lane of weight n at disk hit rate 0 and 1, n lanes
// otherwise), with and without array-cache hits, on sizes from one disk to
// the case study's 24. Two schedules: overlapping requests, which keep the
// drives busy so stripes queue and step, and bursts of same-tick requests
// with the drives idle in between, which hand an idle drive several stripes
// in one tick — served in closed form when they all finish inside it. Both
// drive paths must be taken on both layouts.
func TestDiskArrayMatchesPerDiskOracle(t *testing.T) {
	// Sixty overlapping requests, a few ticks apart, from a zero-byte one
	// to 48 MB (24 ms to ~0.5 s of drive time per stripe).
	sizes := []float64{0, 4096, 300e3, 1 << 20, 7.5e6, 48e6, 1}
	var overlapping []arrival
	for i := 0; i < 60; i++ {
		overlapping = append(overlapping, arrival{gap: i * 7 % 4, demand: sizes[i*5%len(sizes)] * float64(1+i%3)})
	}
	// Sixteen bursts of one to four same-tick requests, 40 ticks apart.
	// Stripes range from zero bytes to far past one tick of drive time; on
	// two disks the 1 MB request's stripe ends exactly at the tick's end.
	burstSizes := []float64{96e3, 0, 1e6, 6e6, 20e6, 24e3}
	var bursts []arrival
	for g := 0; g < 16; g++ {
		for k := 0; k <= g%4; k++ {
			gap := 0
			if k == 0 && g > 0 {
				gap = 40
			}
			bursts = append(bursts, arrival{gap: gap, demand: burstSizes[(g*3+k)%len(burstSizes)]})
		}
	}
	schedules := []struct {
		prefix string
		sched  []arrival
	}{{"", overlapping}, {"idle bursts ", bursts}}
	// Convoys of two to six equal small same-tick requests every six
	// ticks, which reach the controller caches several to a tick, so one
	// tick's stripes share one solo service per request across the lanes;
	// on four disks the 480 kB and 1.2 MB convoys' stripes stop fitting a
	// tick partway. Every fourth convoy trails a 24 MB request that keeps
	// the drives busy. The derate falls among the convoys.
	convoySizes := []float64{240e3, 480e3, 96e3, 480e3, 48e3, 1.2e6}
	var convoys []arrival
	for g := 0; g < 16; g++ {
		for k := 0; k < 2+g%5; k++ {
			gap := 0
			if k == 0 && g > 0 {
				gap = 6
			}
			convoys = append(convoys, arrival{gap: gap, demand: convoySizes[g%len(convoySizes)]})
		}
		if g%4 == 1 {
			convoys = append(convoys, arrival{gap: 0, demand: 24e6})
		}
	}
	type layout struct{ closed, stepped int }
	var single, multi layout // weight-n single lane; lane per drive
	for _, san := range []bool{false, true} {
		for _, disks := range []int{4, 24} {
			for _, diskHit := range []float64{0.05, 0.1} {
				for _, arrayHit := range []float64{0, 0.05} {
					c := storeCase{san: san, disks: disks, diskHit: diskHit, arrayHit: arrayHit,
						seed: uint64(disks) + 100, derateAt: 40}
					t.Run("convoys "+c.String(), func(t *testing.T) {
						closed, stepped := drivePaths(diffStores(t, c, convoys))
						multi.closed += closed
						multi.stepped += stepped
					})
				}
			}
		}
	}
	for _, s := range schedules {
		for _, san := range []bool{false, true} {
			for _, disks := range []int{1, 2, 4, 20, 24} {
				for _, diskHit := range []float64{0, 0.1, 0.5, 1} {
					for _, arrayHit := range []float64{0, 0.05} {
						c := storeCase{san: san, disks: disks, diskHit: diskHit, arrayHit: arrayHit,
							seed: uint64(disks), derateAt: 80}
						t.Run(s.prefix+c.String(), func(t *testing.T) {
							a := diffStores(t, c, s.sched)
							closed, stepped := drivePaths(a)
							l := &multi
							if a.weight > 1 {
								l = &single
							} else if len(a.lanes) == 1 {
								return
							}
							l.closed += closed
							l.stepped += stepped
						})
					}
				}
			}
		}
	}
	for _, l := range []struct {
		name string
		layout
	}{{"single weight-n lane", single}, {"lane per drive", multi}} {
		if l.closed == 0 || l.stepped == 0 {
			t.Errorf("%s arrays: %d stripes served in closed form, %d stepped; the table must take both paths",
				l.name, l.closed, l.stepped)
		}
		t.Logf("%s arrays: %d stripes served in closed form, %d stepped", l.name, l.closed, l.stepped)
	}
}

// FuzzDiskArrayMatchesPerDisk explores what the table above does not: any
// disk count up to 32, hit rates on a 1/255 grid (0 and 255 are the certain
// outcomes, so both lane layouts are reachable), any seed, any derate tick,
// and a request schedule read from bytes — two per request, gap then size.
func FuzzDiskArrayMatchesPerDisk(f *testing.F) {
	f.Add(true, uint8(20), uint8(0), uint8(0), uint64(7), uint16(30), []byte{0, 9, 1, 200, 0, 0, 2, 64, 1, 255})
	f.Add(true, uint8(24), uint8(26), uint8(13), uint64(1), uint16(5), []byte{0, 40, 0, 41, 0, 0, 3, 250, 0, 7, 1, 90})
	f.Add(false, uint8(4), uint8(255), uint8(0), uint64(3), uint16(0), []byte{0, 100, 0, 100, 0, 100})
	f.Add(false, uint8(1), uint8(128), uint8(255), uint64(9), uint16(900), []byte{2, 1, 0, 2})
	f.Add(false, uint8(7), uint8(1), uint8(128), uint64(11), uint16(12), []byte{0, 255, 0, 254, 1, 253, 0, 0, 0, 3})
	// Several controller completions a tick at disk hit rates ~0.1 and
	// ~0.05, derated early; then small stripes behind a busy drive.
	f.Add(false, uint8(3), uint8(26), uint8(0), uint64(5), uint16(3), []byte{0, 18, 0, 18, 0, 18, 0, 18, 0, 18, 0, 18, 0, 25, 0, 18})
	f.Add(true, uint8(23), uint8(13), uint8(13), uint64(8), uint16(2), []byte{0, 18, 0, 18, 0, 36, 0, 18, 0, 56, 0, 18, 0, 18, 0, 18})
	f.Add(false, uint8(7), uint8(26), uint8(0), uint64(4), uint16(0), []byte{0, 180, 1, 18, 0, 18, 0, 18, 0, 18, 0, 18, 0, 18})
	f.Fuzz(func(t *testing.T, san bool, disks, diskHit, arrayHit uint8, seed uint64, derateAt uint16, raw []byte) {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		var sched []arrival
		for i := 0; i+1 < len(raw); i += 2 {
			size := float64(raw[i+1])
			sched = append(sched, arrival{gap: int(raw[i] % 8), demand: size * size * 750}) // 0 to ~49 MB
		}
		diffStores(t, storeCase{
			san: san, disks: 1 + int(disks%32),
			diskHit: float64(diskHit) / 255, arrayHit: float64(arrayHit) / 255,
			seed: seed, derateAt: int(derateAt),
		}, sched)
	})
}
