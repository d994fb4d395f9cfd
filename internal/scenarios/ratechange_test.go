package scenarios

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hardware"
	"repro/internal/topology"
)

// rateFlipper is a source that changes service rates with the bare
// hardware methods — CPU.Derate and Reserve, RAID/SAN.Derate, Link.Degrade
// and Repair, no caller-side Sync or MarkDirty — every period seconds,
// alternating a slowdown with a restore so the changes move events both
// later and earlier. It counts the calls that found their agent busy.
type rateFlipper struct {
	period float64
	next   float64
	flips  int
	busy   int

	cpus   []*hardware.CPU
	stores []interface {
		core.Agent
		Derate(float64)
	}
	links []*hardware.Link
}

func newRateFlipper(inf *topology.Infrastructure, period float64) *rateFlipper {
	f := &rateFlipper{period: period, next: period}
	na := inf.DC("NA")
	for _, tier := range na.Tiers {
		for _, srv := range tier.Servers {
			f.cpus = append(f.cpus, srv.CPU)
			f.links = append(f.links, srv.Link)
			if srv.RAID != nil {
				f.stores = append(f.stores, srv.RAID)
			}
		}
		if tier.SAN != nil {
			f.stores = append(f.stores, tier.SAN)
			f.links = append(f.links, tier.SANLink)
		}
	}
	f.links = append(f.links, inf.WANLink("NA", "EU"), inf.WANLink("EU", "NA"), inf.DC("EU").ClientLink)
	return f
}

func (f *rateFlipper) Poll(_ *core.Simulation, now float64) {
	if now < f.next {
		return
	}
	f.next = now + f.period
	slow := f.flips%2 == 0
	f.flips++
	for _, c := range f.cpus {
		f.count(c)
		if slow {
			c.Derate(0.6)
			c.Reserve(0.25)
		} else {
			c.Reserve(0)
			c.Derate(1)
		}
	}
	for _, s := range f.stores {
		f.count(s)
		if slow {
			s.Derate(0.4)
		} else {
			s.Derate(1)
		}
	}
	for _, l := range f.links {
		f.count(l)
		if slow {
			l.Degrade(0.5)
		} else {
			l.Repair()
		}
	}
}

func (f *rateFlipper) count(a core.Agent) {
	if !a.Idle() {
		f.busy++
	}
}

func (f *rateFlipper) NextPoll(float64) float64 { return f.next }

// TestBareRateChangesMatchReference: the hardware rate methods replay the
// ticks the production loop deferred on their agent before the change and
// rekey its calendar entry after it, so a caller needs no bracket. A source
// calls them bare on busy agents of the chaos platform — its db tier on a
// SAN, so both storage layouts are derated — every 0.37 s of a thinned run
// whose quiet stretches the production loop jumps, and the run must be
// bit-identical to the reference tick loop.
func TestBareRateChangesMatchReference(t *testing.T) {
	spec := chaosPlatform()
	for i := range spec.DCs {
		db := &spec.DCs[i].Tiers[1]
		db.Server.RAID = nil
		db.SAN = &hardware.SANSpec{
			Disks: 6, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
			FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 0.05,
		}
		db.SANLink = &hardware.LinkSpec{Gbps: 4, LatencyMS: 0.3}
	}
	run := func(flags experiment.LoopFlags) (*experiment.Result, *rateFlipper) {
		var f *rateFlipper
		e, err := ChaosExperiment(
			experiment.WithInfra(spec),
			experiment.WithLoopFlags(flags),
			experiment.WithSetup(func(r *experiment.Run) error {
				f = newRateFlipper(r.Inf, 0.37)
				r.Sim.AddSource(f)
				return nil
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, f
	}
	opt, f := run(experiment.LoopFlags{})
	if opt.Stats.Jumps == 0 {
		t.Fatal("fast-forward never engaged; the test pins nothing")
	}
	if f.busy == 0 {
		t.Fatal("no rate change found its agent busy; the test pins nothing")
	}
	t.Logf("%d flips, %d calls on busy agents, %d jumps", f.flips, f.busy, opt.Stats.Jumps)
	ref, _ := run(experiment.LoopFlags{NoFastForward: true})
	if g, w := opt.Digest(), ref.Digest(); g != w {
		t.Errorf("bare rate changes diverged between the production and reference loops:\n%s\n%s", g, w)
	}
}
