package hardware

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/queueing"
	"repro/internal/simtime"
)

// newNIC, newSwitch and newMemory set up a component of their own, each a
// zero value set up in place by its Init, as a platform's slabs are.
func newNIC(sim *core.Simulation, name string, gbps float64) *NIC {
	n := new(NIC)
	n.Init(sim, name, gbps)
	return n
}

func newSwitch(sim *core.Simulation, name string, gbps float64) *Switch {
	s := new(Switch)
	s.Init(sim, name, gbps)
	return s
}

func newMemory(capacity, hitRate float64, seed uint64) *Memory {
	m := new(Memory)
	m.Init(capacity, hitRate, seed)
	return m
}

func drainAll(t *testing.T, a core.Agent, dt float64, maxSteps int) []*queueing.Task {
	t.Helper()
	var done []*queueing.Task
	for i := 0; i < maxSteps && !a.Idle(); i++ {
		a.Step(dt)
		a.Drain(func(task *queueing.Task) { done = append(done, task) })
	}
	if !a.Idle() {
		t.Fatalf("%s not idle after %d steps", a.Name(), maxSteps)
	}
	return done
}

func TestCPUSpecValidation(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	bad := []CPUSpec{
		{Sockets: 0, Cores: 4, GHz: 2},
		{Sockets: 1, Cores: 0, GHz: 2},
		{Sockets: 1, Cores: 4, GHz: 0},
		{Sockets: 1, Cores: 4, GHz: math.NaN()},
		{Sockets: 1, Cores: 4, GHz: math.Inf(1)},
		{Sockets: 1, Cores: 4, GHz: 2, HTFactor: math.NaN()},
	}
	for _, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCPU(%+v) did not panic", spec)
				}
			}()
			NewCPU(s, "cpu", spec)
		}()
	}
}

// NIC, Switch and Memory Init reject a speed, capacity or hit rate that
// is not a finite number in range — NaN, for which every comparison is
// false, and ±Inf included.
func TestNetAndMemoryConstructorValidation(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	panics := func(name string, build func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		build()
	}
	for _, gbps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		panics(fmt.Sprintf("NIC.Init(%v)", gbps), func() { newNIC(s, "nic", gbps) })
		panics(fmt.Sprintf("Switch.Init(%v)", gbps), func() { newSwitch(s, "sw", gbps) })
	}
	for _, c := range []struct{ capacity, hitRate float64 }{
		{0, 0.5}, {-1, 0.5}, {math.NaN(), 0.5}, {math.Inf(1), 0.5}, {math.Inf(-1), 0.5},
		{1e9, -0.1}, {1e9, 1.1}, {1e9, math.NaN()}, {1e9, math.Inf(1)}, {1e9, math.Inf(-1)},
	} {
		panics(fmt.Sprintf("Memory.Init(%v, %v)", c.capacity, c.hitRate), func() { newMemory(c.capacity, c.hitRate, 1) })
	}
}

func TestCPUServiceTimeMatchesFrequency(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 1, Cores: 1, GHz: 2}) // 2e9 cycles/s
	cpu.Enqueue(&queueing.Task{ID: 1, Demand: 1e9})                // 0.5 s of work
	var done []*queueing.Task
	cpu.Step(0.4)
	cpu.Drain(func(task *queueing.Task) { done = append(done, task) })
	if len(done) != 0 {
		t.Fatal("completed before 0.5s of cycles consumed")
	}
	cpu.Step(0.11)
	cpu.Drain(func(task *queueing.Task) { done = append(done, task) })
	if len(done) != 1 {
		t.Fatal("not completed after full service time")
	}
}

func TestCPURoundRobinAcrossSockets(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 2, Cores: 1, GHz: 1})
	// Two equal tasks must land on different sockets and finish together.
	cpu.Enqueue(&queueing.Task{ID: 1, Demand: 1e9})
	cpu.Enqueue(&queueing.Task{ID: 2, Demand: 1e9})
	done := drainAll(t, cpu, 0.1, 20)
	if len(done) != 2 {
		t.Fatalf("completed %d, want 2", len(done))
	}
	if cpu.QueueDepth() != 0 {
		t.Errorf("queue depth = %d", cpu.QueueDepth())
	}
}

func TestCPUHTFactorSpeedsService(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	plain := NewCPU(s, "plain", CPUSpec{Sockets: 1, Cores: 1, GHz: 1})
	ht := NewCPU(s, "ht", CPUSpec{Sockets: 1, Cores: 1, GHz: 1, HTFactor: 2})
	plain.Enqueue(&queueing.Task{ID: 1, Demand: 1e9})
	ht.Enqueue(&queueing.Task{ID: 1, Demand: 1e9})
	var plainDone, htDone int
	plain.Step(0.6)
	plain.Drain(func(*queueing.Task) { plainDone++ })
	ht.Step(0.6)
	ht.Drain(func(*queueing.Task) { htDone++ })
	if plainDone != 0 || htDone != 1 {
		t.Errorf("HT factor not applied: plain=%d ht=%d", plainDone, htDone)
	}
}

func TestCPUBusyAccounting(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 2, Cores: 2, GHz: 1})
	cpu.Enqueue(&queueing.Task{ID: 1, Demand: 1e9}) // 1 core-second
	drainAll(t, cpu, 0.1, 20)
	if b := cpu.TakeBusy(); math.Abs(b-1.0) > 1e-9 {
		t.Errorf("busy = %v, want 1.0", b)
	}
	if cpu.Spec().TotalCores() != 4 {
		t.Errorf("TotalCores = %d", cpu.Spec().TotalCores())
	}
}

func TestMemoryOccupancy(t *testing.T) {
	m := newMemory(32e9, 0, 1)
	m.Acquire(10e9)
	m.Acquire(5e9)
	if m.Used() != 15e9 {
		t.Errorf("used = %v", m.Used())
	}
	m.Release(5e9)
	if m.Used() != 10e9 {
		t.Errorf("used after release = %v", m.Used())
	}
	if m.Peak() != 15e9 {
		t.Errorf("peak = %v", m.Peak())
	}
	if m.Capacity() != 32e9 {
		t.Errorf("capacity = %v", m.Capacity())
	}
}

func TestMemoryOverReleasePanics(t *testing.T) {
	m := newMemory(1e9, 0, 1)
	m.Acquire(1)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	m.Release(2)
}

func TestMemoryHitRateExtremes(t *testing.T) {
	never := newMemory(1e9, 0, 1)
	always := newMemory(1e9, 1, 1)
	for i := 0; i < 100; i++ {
		if never.Hit() {
			t.Fatal("hitRate=0 produced a hit")
		}
		if !always.Hit() {
			t.Fatal("hitRate=1 produced a miss")
		}
	}
}

func TestMemoryHitRateStatistical(t *testing.T) {
	m := newMemory(1e9, 0.3, 42)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Hit() {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("empirical hit rate %v, want ~0.3", rate)
	}
}

// drawHit with the threshold hitThreshold(p) is rand.Rand.Float64() < p on
// the same source, draw for draw, from the certain outcomes to the
// probabilities one ulp inside them and one ulp either side of 0.1. At the
// threshold's edge words, m = thr-1 and m = thr, the integer comparison
// agrees with Float64's m/2^53 < p: thr is the first word that misses.
func TestDrawHitMatchesRandFloat64(t *testing.T) {
	ps := []float64{0, 1e-9, 0.05, 0.1, math.Nextafter(0.1, 0), math.Nextafter(0.1, 1), 0.5,
		math.Nextafter(1, 0), 1}
	for _, p := range ps {
		thr := hitThreshold(p)
		for _, m := range []uint64{thr - 1, thr} {
			if m >= 1<<53 { // thr-1 when p is 0, thr when p is 1: not a 53-bit word
				continue
			}
			if g, w := m < thr, float64(m)/(1<<53) < p; g != w {
				t.Fatalf("p=%v word %d (threshold %d): hit %v, m/2^53 < p %v", p, m, thr, g, w)
			}
		}
		got := rand.NewPCG(7, uint64(p*1e6))
		want := rand.New(rand.NewPCG(7, uint64(p*1e6)))
		for i := 0; i < 5000; i++ {
			if g, w := drawHit(got, thr), want.Float64() < p; g != w {
				t.Fatalf("p=%v draw %d: drawHit %v, rand.Float64() < p %v", p, i, g, w)
			}
		}
	}
}

func TestNICAndSwitchServiceRate(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	nic := newNIC(s, "nic", 1)   // 1 Gbps = 125e6 B/s
	sw := newSwitch(s, "sw", 10) // 10 Gbps
	if nic.Rate() != 125e6 {
		t.Errorf("nic rate = %v", nic.Rate())
	}
	if sw.Rate() != 1.25e9 {
		t.Errorf("switch rate = %v", sw.Rate())
	}
	nic.Enqueue(&queueing.Task{ID: 1, Demand: 125e6}) // 1 second
	done := drainAll(t, nic, 0.25, 10)
	if len(done) != 1 {
		t.Fatal("nic transfer incomplete")
	}
	if b := nic.TakeBusy(); math.Abs(b-1.0) > 1e-9 {
		t.Errorf("nic busy = %v, want 1.0", b)
	}
}

func TestLinkLatencyAndSharing(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	l := NewLink(s, "wan", LinkSpec{Gbps: 0.155, LatencyMS: 100, MaxConn: 64})
	// 155 Mbps = 19.375e6 B/s; transfer 19.375e6 bytes => 1s + 0.1s latency.
	l.Enqueue(&queueing.Task{ID: 1, Demand: 19.375e6})
	var done int
	for i := 0; i < 10; i++ { // 1.0s total: not yet complete
		l.Step(0.1)
		l.Drain(func(*queueing.Task) { done++ })
	}
	if done != 0 {
		t.Fatal("transfer completed before latency + transmission")
	}
	l.Step(0.11)
	l.Drain(func(*queueing.Task) { done++ })
	if done != 1 {
		t.Fatal("transfer incomplete after 1.21s")
	}
}

func TestLinkAllocationCapsBandwidth(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	full := NewLink(s, "full", LinkSpec{Gbps: 1})
	capped := NewLink(s, "capped", LinkSpec{Gbps: 1, Allocated: 0.2})
	if capped.Rate() >= full.Rate() {
		t.Errorf("allocated rate %v not below full %v", capped.Rate(), full.Rate())
	}
	if math.Abs(capped.Rate()-0.2*full.Rate()) > 1e-6 {
		t.Errorf("allocated rate = %v, want 20%% of %v", capped.Rate(), full.Rate())
	}
}

func TestLinkOverAllocationPanics(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	defer func() {
		if recover() == nil {
			t.Error("allocation > 1 did not panic")
		}
	}()
	NewLink(s, "bad", LinkSpec{Gbps: 1, Allocated: 1.5})
}

func TestLinkFailureIsRoutingPlaneOnly(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	l := NewLink(s, "wan", LinkSpec{Gbps: 1})
	l.Fail()
	if !l.Failed() {
		t.Fatal("Failed() false after Fail()")
	}
	// Complete-then-divert: a failed link refuses route selection (the
	// topology layer's job) but keeps draining transfers whose route was
	// pinned before the failure — enqueue must not panic or stall.
	l.Enqueue(&queueing.Task{ID: 1, Demand: 1})
	l.Restore()
	if l.Failed() {
		t.Fatal("Failed() true after Restore()")
	}
	l.Enqueue(&queueing.Task{ID: 2, Demand: 1})
}

func TestRAIDStripingAcceleratesLargeReads(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	one := NewRAID(s, "raid1", RAIDSpec{Disks: 1, Disk: disk, CtrlGbps: 4, HitRate: 0})
	four := NewRAID(s, "raid4", RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 4, HitRate: 0})
	read := func(r *RAID) float64 {
		r.Enqueue(&queueing.Task{ID: 1, Demand: 100e6}) // 1s on one 100MB/s drive
		steps := 0
		for !r.Idle() {
			r.Step(0.01)
			r.Drain(func(*queueing.Task) {})
			steps++
			if steps > 10000 {
				t.Fatal("raid read never completed")
			}
		}
		return float64(steps) * 0.01
	}
	t1 := read(one)
	t4 := read(four)
	if t4 >= t1 {
		t.Errorf("striping did not accelerate: 1 disk %.2fs vs 4 disks %.2fs", t1, t4)
	}
	if ratio := t1 / t4; ratio < 2.5 {
		t.Errorf("4-way striping speedup %.2f, want > 2.5", ratio)
	}
}

func TestRAIDCacheHitBypassesDisks(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	r := NewRAID(s, "raid", RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 4, HitRate: 1})
	r.Enqueue(&queueing.Task{ID: 1, Demand: 100e6})
	done := drainAll(t, r, 0.01, 1000)
	if len(done) != 1 {
		t.Fatal("request incomplete")
	}
	if b := r.TakeBusy(); b != 0 {
		t.Errorf("drives did work (%v s) despite 100%% cache hit", b)
	}
}

func TestRAIDJoinWaitsForAllStripes(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	r := NewRAID(s, "raid", RAIDSpec{Disks: 8, Disk: disk, CtrlGbps: 4, HitRate: 0})
	r.Enqueue(&queueing.Task{ID: 7, Demand: 800e6}) // 1s per stripe on 8 disks
	var completions []*queueing.Task
	elapsed := 0.0
	for !r.Idle() {
		r.Step(0.01)
		elapsed += 0.01
		r.Drain(func(task *queueing.Task) { completions = append(completions, task) })
		if elapsed > 100 {
			t.Fatal("join never completed")
		}
	}
	if len(completions) != 1 || completions[0].ID != 7 {
		t.Fatalf("completions = %v", completions)
	}
	if elapsed < 1.0 {
		t.Errorf("join completed in %.2fs, before the 1s stripe time", elapsed)
	}
}

func TestSANPipelineCompletes(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	san := NewSAN(s, "san", SANSpec{
		Disks:        20,
		Disk:         DiskSpec{CtrlGbps: 4, MBps: 120, HitRate: 0.1},
		FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 0,
	})
	san.Enqueue(&queueing.Task{ID: 3, Demand: 240e6})
	done := drainAll(t, san, 0.01, 10000)
	if len(done) != 1 || done[0].ID != 3 {
		t.Fatalf("SAN completions = %v", done)
	}
}

func TestSANCacheHitSkipsLoopAndDisks(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	san := NewSAN(s, "san", SANSpec{
		Disks:        4,
		Disk:         DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0},
		FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 1,
	})
	san.Enqueue(&queueing.Task{ID: 1, Demand: 400e6})
	done := drainAll(t, san, 0.01, 1000)
	if len(done) != 1 {
		t.Fatal("request incomplete")
	}
	if b := san.TakeBusy(); b != 0 {
		t.Errorf("drives did work (%v s) despite 100%% cache hit", b)
	}
}

// TestStoreCertainHitRateTakesNoDraw: an array-cache hit rate of 0 or 1
// decides every request without touching the store's RNG, which feeds
// nothing else; an uncertain rate draws once per request at the cache stage.
func TestStoreCertainHitRateTakesNoDraw(t *testing.T) {
	sim := core.NewSimulation(core.Config{Seed: 11})
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	san := NewSAN(sim, "san", SANSpec{Disks: 20, Disk: disk, FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 0})
	raid := NewRAID(sim, "raid", RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 4, HitRate: 1})
	half := NewRAID(sim, "half", RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 4, HitRate: 0.5})
	cases := []struct {
		s     *store
		a     core.Agent
		tag   uint64
		draws bool
	}{
		{&san.store, san, tagSAN, false},
		{&raid.store, raid, tagRAID, false},
		{&half.store, half, tagRAID, true},
	}
	for _, c := range cases {
		for i := 0; i < 5; i++ {
			c.s.Enqueue(&queueing.Task{ID: uint64(i), Demand: 4e6})
		}
		if done := drainAll(t, c.a, 0.01, 10000); len(done) != 5 {
			t.Fatalf("%s: %d of 5 requests completed", c.a.Name(), len(done))
		}
		id := c.a.ID()
		fresh := rand.NewPCG(subSeed(sim, id, c.tag), subSeed(sim, id, c.tag+1))
		if moved := c.s.rng != *fresh; moved != c.draws {
			t.Errorf("%s: RNG moved = %v, want %v", c.a.Name(), moved, c.draws)
		}
	}
}

func TestStorageSpecValidation(t *testing.T) {
	sim := core.NewSimulation(core.Config{})
	nan := math.NaN()
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0.1}
	raid := RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 4, HitRate: 0.05}
	san := SANSpec{Disks: 4, Disk: disk, FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 0.05}
	if err := raid.validate(); err != nil {
		t.Fatalf("valid RAIDSpec rejected: %v", err)
	}
	if err := san.validate(); err != nil {
		t.Fatalf("valid SANSpec rejected: %v", err)
	}
	// rejected asserts that validate refuses the spec and the constructor
	// panics on it.
	rejected := func(name string, spec interface{ validate() error }, build func()) {
		t.Helper()
		if spec.validate() == nil {
			t.Errorf("%s: %+v accepted", name, spec)
		}
		defer func() {
			if recover() == nil {
				t.Errorf("%s: constructor did not panic on %+v", name, spec)
			}
		}()
		build()
	}
	// Each row breaks one field of a valid spec. The lane layout is derived
	// from Disk.HitRate, so a NaN there must never reach diskArray.init.
	for name, breakIt := range map[string]func(*DiskSpec){
		"zero drive rate":        func(d *DiskSpec) { d.MBps = 0 },
		"NaN drive rate":         func(d *DiskSpec) { d.MBps = nan },
		"infinite drive rate":    func(d *DiskSpec) { d.MBps = math.Inf(1) },
		"NaN disk cache rate":    func(d *DiskSpec) { d.CtrlGbps = nan },
		"negative disk hit rate": func(d *DiskSpec) { d.HitRate = -0.1 },
		"disk hit rate above 1":  func(d *DiskSpec) { d.HitRate = 2 },
		"NaN disk hit rate":      func(d *DiskSpec) { d.HitRate = nan },
	} {
		r, s := raid, san
		breakIt(&r.Disk)
		breakIt(&s.Disk)
		rejected("RAID, "+name, r, func() { NewRAID(sim, "bad", r) })
		rejected("SAN, "+name, s, func() { NewSAN(sim, "bad", s) })
	}
	for name, breakIt := range map[string]func(*RAIDSpec){
		"no disks":               func(r *RAIDSpec) { r.Disks = 0 },
		"zero controller rate":   func(r *RAIDSpec) { r.CtrlGbps = 0 },
		"NaN controller rate":    func(r *RAIDSpec) { r.CtrlGbps = nan },
		"array hit rate above 1": func(r *RAIDSpec) { r.HitRate = 1.5 },
		"NaN array hit rate":     func(r *RAIDSpec) { r.HitRate = nan },
	} {
		r := raid
		breakIt(&r)
		rejected("RAID, "+name, r, func() { NewRAID(sim, "bad", r) })
	}
	for name, breakIt := range map[string]func(*SANSpec){
		"no disks":               func(s *SANSpec) { s.Disks = 0 },
		"NaN FC switch rate":     func(s *SANSpec) { s.FCSwitchGbps = nan },
		"zero controller rate":   func(s *SANSpec) { s.CtrlGbps = 0 },
		"NaN controller rate":    func(s *SANSpec) { s.CtrlGbps = nan },
		"NaN FC loop rate":       func(s *SANSpec) { s.FCALGbps = nan },
		"array hit rate above 1": func(s *SANSpec) { s.HitRate = 1.5 },
		"NaN array hit rate":     func(s *SANSpec) { s.HitRate = nan },
	} {
		s := san
		breakIt(&s)
		rejected("SAN, "+name, s, func() { NewSAN(sim, "bad", s) })
	}
}

// Property: for any mix of request sizes, a RAID with no caches conserves
// work — total drive busy time equals total demand divided by aggregate
// drive throughput.
func TestRAIDWorkConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 16 {
			return true
		}
		s := core.NewSimulation(core.Config{})
		disk := DiskSpec{CtrlGbps: 100, MBps: 100, HitRate: 0}
		r := NewRAID(s, "raid", RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 100, HitRate: 0})
		total := 0.0
		for i, v := range raw {
			d := float64(v%1000)*1e5 + 1e5
			total += d
			r.Enqueue(&queueing.Task{ID: uint64(i), Demand: d})
		}
		for i := 0; i < 1000000 && !r.Idle(); i++ {
			r.Step(0.05)
			r.Drain(func(*queueing.Task) {})
		}
		busy := r.TakeBusy()
		return math.Abs(busy-total/100e6) < 1e-6*float64(len(raw))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// harnessSANs builds the two SAN shapes the benchmark harness runs, one per
// lane layout: the 20-disk validation SAN, whose certain disk-cache outcome
// (hit rate 0) makes its drives one lane of weight 20, and the 24-disk
// case-study SAN, whose 0.1 disk hit rate needs a lane per drive. Each holds
// two overlapping requests.
func harnessSANs(t *testing.T, s *core.Simulation) []*SAN {
	t.Helper()
	sans := []*SAN{
		NewSAN(s, "san-validation", SANSpec{
			Disks: 20, Disk: DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
			FCSwitchGbps: 8, CtrlGbps: 8, FCALGbps: 8, HitRate: 0,
		}),
		NewSAN(s, "san-casestudy", SANSpec{
			Disks: 24, Disk: DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
			FCSwitchGbps: 16, CtrlGbps: 16, FCALGbps: 16, HitRate: 0.05,
		}),
	}
	for i, lanes := range []int{1, 24} {
		if got := len(sans[i].array.lanes); got != lanes {
			t.Fatalf("%s: %d drive lanes, want %d", sans[i].Name(), got, lanes)
		}
		if h := sans[i].Horizon(); !math.IsInf(h, 1) {
			t.Errorf("%s idle horizon = %v, want +Inf", sans[i].Name(), h)
		}
		sans[i].Enqueue(&queueing.Task{ID: 10, Demand: 960e6})
		sans[i].Enqueue(&queueing.Task{ID: 11, Demand: 360e6})
	}
	return sans
}

// TestAgentHorizons checks each hardware agent's event horizon: +Inf when
// idle, the exact earliest internal event when loaded, and per-tick
// equivalence of the bulk-step path against plain stepping.
func TestAgentHorizons(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 1, Cores: 2, GHz: 1e-9}) // 1 cycle/s per core
	nic := newNIC(s, "nic", 8e-9)                                     // 1 byte/s
	raid := NewRAID(s, "raid", RAIDSpec{
		Disks: 2, Disk: DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
		CtrlGbps: 8, HitRate: 0,
	})
	for _, a := range []core.Agent{cpu, nic, raid} {
		if h := a.Horizon(); !math.IsInf(h, 1) {
			t.Errorf("%s idle horizon = %v, want +Inf", a.Name(), h)
		}
	}
	cpu.Enqueue(&queueing.Task{ID: 1, Demand: 4})
	cpu.Enqueue(&queueing.Task{ID: 2, Demand: 9})
	if h := cpu.Horizon(); h != 4 {
		t.Errorf("cpu horizon = %v, want 4 (earliest core completion)", h)
	}
	nic.Enqueue(&queueing.Task{ID: 3, Demand: 2.5})
	if h := nic.Horizon(); h != 2.5 {
		t.Errorf("nic horizon = %v, want 2.5", h)
	}
	raid.Enqueue(&queueing.Task{ID: 4, Demand: 64e6})
	h := raid.Horizon()
	if math.IsInf(h, 1) || h <= 0 {
		t.Errorf("loaded raid horizon = %v, want finite positive (controller-cache service)", h)
	}
	if want := 64e6 / (8e9 / 8); h != want {
		t.Errorf("raid horizon = %v, want %v (dacc service time)", h, want)
	}
	// Both lane layouts, over the whole life of two overlapping requests:
	// the horizon opens at the first request's FC-switch service time, and
	// from there to drain no tick completes a request the horizon placed
	// beyond it — an overshoot is an event a fast-forward jump would skip.
	for _, san := range harnessSANs(t, s) {
		if h, want := san.Horizon(), 960e6/(san.Spec().FCSwitchGbps*1e9/8); h != want {
			t.Errorf("%s horizon = %v, want %v (FC switch service time)", san.Name(), h, want)
		}
		const dt = 0.005
		for tick := 0; !san.Idle(); tick++ {
			h := san.Horizon()
			if math.IsInf(h, 1) || h < 0 {
				t.Fatalf("%s tick %d: busy horizon = %v, want finite", san.Name(), tick, h)
			}
			san.Step(dt)
			san.Drain(func(task *queueing.Task) {
				if h > dt+1e-9 {
					t.Errorf("%s tick %d: request %d completed inside a %v s horizon", san.Name(), tick, task.ID, h)
				}
			})
			if tick > 10000 {
				t.Fatalf("%s never drained", san.Name())
			}
		}
	}
}

// ffGuard is core's: advanceAgent sizes every StepN chunk from the agent's
// horizon less this margin.
const ffGuard = 1e-6

// bulkAgent is an agent the chunk driver can replay.
type bulkAgent interface {
	core.Agent
	core.BulkStepper
}

// advance replays n ticks of dt on the agents as core's advanceAgent replays
// a lazy agent: a chunk of WholeTicksBefore(Horizon() - ffGuard) ticks,
// capped at what is left, goes to StepN once requireQuiet has checked it,
// and a tick holding an event, or a last lone tick, to Step. Every agent
// takes the same calls, sized from the first, whose horizon the others must
// match bit for bit. It returns the number of StepN chunks.
func advance(t testing.TB, n int, dt float64, agents ...bulkAgent) (chunks int) {
	t.Helper()
	clock := simtime.NewClock(dt)
	for n > 0 {
		k := 0
		if n > 1 {
			h := agents[0].Horizon()
			for _, a := range agents[1:] {
				if g := a.Horizon(); math.Float64bits(g) != math.Float64bits(h) {
					t.Fatalf("%s horizon %v, %s %v", agents[0].Name(), h, a.Name(), g)
				}
			}
			k = n
			if !math.IsInf(h, 1) {
				k = min(int(clock.WholeTicksBefore(h-ffGuard)), n)
			}
		}
		if k < 1 {
			for _, a := range agents {
				a.Step(dt)
			}
			n--
			continue
		}
		for _, a := range agents {
			requireQuiet(t, a, k, dt)
			a.StepN(k, dt)
		}
		chunks++
		n -= k
	}
	return chunks
}

// requireQuiet fails the test when a StepN chunk of n ticks would break the
// precondition StepN no longer checks: a queue of the agent has an event
// within the chunk, or within the 1e-7 s beyond it that Step's eps-early
// completions and the drift of a long subtraction chain need. It asks every
// queue rather than the agent's Horizon, so an agent horizon that misses a
// queue shows here instead of as a silently wrong replay.
func requireQuiet(t testing.TB, a core.Agent, n int, dt float64) {
	t.Helper()
	var qs []interface{ Horizon() float64 }
	switch v := a.(type) {
	case *CPU:
		for i := range v.sockets {
			qs = append(qs, &v.sockets[i])
		}
	case *NIC:
		qs = append(qs, &v.q)
	case *Switch:
		qs = append(qs, &v.q)
	case *Link:
		qs = append(qs, &v.q)
	case *RAID:
		qs = storeQueues(&v.store)
	case *SAN:
		qs = storeQueues(&v.store)
	case *oracleStore:
		for _, q := range v.stages {
			qs = append(qs, q)
		}
		for _, d := range v.array.disks {
			qs = append(qs, d.dcc, d.hdd)
		}
	default:
		t.Fatalf("requireQuiet: no queues known for %T", a)
	}
	span := float64(n) * dt
	for _, q := range qs {
		if h := q.Horizon(); !(h > span+1e-7) {
			t.Fatalf("%s: a %d-tick StepN chunk (%v s) spans a queue event %v s away", a.Name(), n, span, h)
		}
	}
}

// storeQueues lists every queue of a RAID or SAN: its stages, the lockstep
// controller caches and the drive lanes.
func storeQueues(s *store) []interface{ Horizon() float64 } {
	var qs []interface{ Horizon() float64 }
	for i := range s.stages {
		qs = append(qs, &s.stages[i])
	}
	qs = append(qs, &s.array.dcc)
	for i := range s.array.lanes {
		qs = append(qs, &s.array.lanes[i])
	}
	return qs
}

// TestStepNMatchesStep replays every bulk-stepping hardware agent through
// windows the way the production loop replays a lazy agent (advance) and
// asserts the state after each window equals per-tick stepping: the replay
// contract behind fast-forward. The SANs cover both drive-lane layouts of
// the disk array (see harnessSANs).
func TestStepNMatchesStep(t *testing.T) {
	build := func() (*core.Simulation, []core.Agent) {
		s := core.NewSimulation(core.Config{Seed: 11})
		cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 2, Cores: 2, GHz: 2.5})
		link := NewLink(s, "link", LinkSpec{Gbps: 1, LatencyMS: 45})
		san := NewSAN(s, "san", SANSpec{
			Disks: 4, Disk: DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
			FCSwitchGbps: 8, CtrlGbps: 8, FCALGbps: 8, HitRate: 0.05,
		})
		cpu.Enqueue(&queueing.Task{ID: 1, Demand: 3e9})
		cpu.Enqueue(&queueing.Task{ID: 2, Demand: 7e9})
		link.Enqueue(&queueing.Task{ID: 3, Demand: 80e6})
		san.Enqueue(&queueing.Task{ID: 4, Demand: 96e6})
		agents := []core.Agent{cpu, link, san}
		for _, san := range harnessSANs(t, s) {
			agents = append(agents, san)
		}
		return s, agents
	}
	// A jump-sized window, which completions inside it split into several
	// chunks, and a short one that the agents mostly take in one.
	const dt = 0.01
	for _, n := range []int{700, 3} {
		_, bulk := build()
		_, plain := build()
		for i, a := range bulk {
			ref := plain[i]
			chunks := 0
			for tick := 0; tick < 2100; tick += n {
				chunks += advance(t, n, dt, a.(bulkAgent))
				for j := 0; j < n; j++ {
					ref.Step(dt)
				}
				var ad, rd int
				a.Drain(func(*queueing.Task) { ad++ })
				ref.Drain(func(*queueing.Task) { rd++ })
				if ad != rd {
					t.Fatalf("%s, %d-tick windows: completions after window differ: %d vs %d", a.Name(), n, ad, rd)
				}
				if ah, rh := a.Horizon(), ref.Horizon(); ah != rh {
					t.Fatalf("%s, %d-tick windows: horizon after window %v vs %v", a.Name(), n, ah, rh)
				}
			}
			if ab, rb := takeBusy(a), takeBusy(ref); ab != rb {
				t.Errorf("%s, %d-tick windows: busy accumulators differ: %v vs %v", a.Name(), n, ab, rb)
			}
			if a.Idle() != ref.Idle() {
				t.Errorf("%s, %d-tick windows: idle %v vs %v", a.Name(), n, a.Idle(), ref.Idle())
			}
			if chunks == 0 {
				t.Errorf("%s, %d-tick windows: no StepN chunk", a.Name(), n)
			}
		}
	}
}

func takeBusy(a core.Agent) float64 {
	switch v := a.(type) {
	case *CPU:
		return v.TakeBusy()
	case *Link:
		return v.TakeBusy()
	case *SAN:
		return v.TakeBusy()
	}
	return 0
}
