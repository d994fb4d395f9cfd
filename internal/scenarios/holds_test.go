package scenarios

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/cascade"
	"repro/internal/core"
)

// burstSource launches the consolidation's operation mix — calibrated CAD,
// VIS and PDM — round-robin from every client data center against the NA
// master, one operation every period until the until-th second, and then
// goes quiet so the platform can drain.
type burstSource struct {
	cs     *CaseStudy
	ops    []cascade.Op
	dcs    []string
	sc     map[string]*cascade.Scratch
	next   float64
	period float64
	until  float64
	n      int
	err    error
}

func (b *burstSource) Poll(s *core.Simulation, now float64) {
	for ; now >= b.next && b.next < b.until; b.next += b.period {
		dc := b.dcs[b.n%len(b.dcs)]
		op := b.ops[b.n%len(b.ops)]
		b.n++
		sc := b.sc[dc]
		run, err := sc.Instantiate(op, sc.NewBinding(b.cs.Inf, b.cs.Inf.DC(dc), b.cs.Inf.DC("NA")))
		if err != nil {
			b.err = err
			return
		}
		s.StartOp(run)
	}
}

func (b *burstSource) NextPoll(float64) float64 {
	if b.next >= b.until {
		return math.Inf(1)
	}
	return b.next
}

// requireHoldsBalanced checks a drained platform: no flow in flight and no
// server memory still held beyond the rounding slack a balanced
// acquire/release history can leave (hardware's releaseSlack bound), with
// at least one server having held memory at all.
func requireHoldsBalanced(t *testing.T, cs *CaseStudy) {
	t.Helper()
	if n := cs.Sim.ActiveFlows(); n != 0 {
		t.Fatalf("%d flows still in flight", n)
	}
	held := 0
	for _, dc := range cs.Inf.DCNames() {
		for _, tier := range cs.Inf.DC(dc).Tiers {
			for _, srv := range tier.Servers {
				used, peak := srv.Mem.Used(), srv.Mem.Peak()
				if used > max(1e-6, peak*1e-9) {
					t.Errorf("%s still holds %v bytes of memory at idle (peak %v)", srv.Name, used, peak)
				}
				if peak > 0 {
					held++
				}
			}
		}
	}
	if held == 0 {
		t.Fatal("no server memory was ever held: the run exercised no hold span")
	}
}

// TestHoldsBalanceAtIdle runs two short scenarios to idle and requires every
// memory hold span a plan opened to have closed: a burst of interactive
// operations on the consolidation platform (one span per server hop), and
// the consolidation's SYNCHREP and INDEXBUILD daemons, whose plans chain
// several hops and so hold several spans each.
func TestHoldsBalanceAtIdle(t *testing.T) {
	t.Run("consolidation window", func(t *testing.T) {
		cs, err := NewConsolidation(CaseConfig{Seed: 7, Scale: 0.25, StartHour: 13, EndHour: 14,
			DisableClients: true, DisableBackground: true})
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Sim.Shutdown()
		na := cs.Inf.DC("NA")
		cad, err := apps.CalibratedCADOps(cs.Inf, na, na, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		src := &burstSource{cs: cs, ops: append(append(cad, apps.VISOps()...), apps.PDMOps()...),
			sc: map[string]*cascade.Scratch{}, period: 0.05, until: 60}
		for _, dc := range cs.Inf.DCNames() {
			if cs.Inf.DC(dc).Clients != nil {
				src.dcs = append(src.dcs, dc)
				src.sc[dc] = &cascade.Scratch{}
			}
		}
		cs.Sim.AddSource(src)
		if err := cs.Sim.RunUntilIdle(3600); err != nil {
			t.Fatal(err)
		}
		if src.err != nil {
			t.Fatal(src.err)
		}
		if src.n < 1000 || cs.Sim.CompletedOps() != uint64(src.n) {
			t.Fatalf("launched %d operations, completed %d", src.n, cs.Sim.CompletedOps())
		}
		requireHoldsBalanced(t, cs)
	})
	t.Run("daemons", func(t *testing.T) {
		cs, err := NewConsolidation(CaseConfig{Seed: 7, Scale: 0.25, StartHour: 13, EndHour: 14, DisableClients: true})
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Sim.Shutdown()
		// The first SYNCHREP launches at the end of its first interval;
		// then run to the first moment nothing is in flight.
		cs.Sim.RunFor(cs.Sync["NA"].Interval + 1)
		if err := cs.Sim.RunUntilIdle(7200); err != nil {
			t.Fatal(err)
		}
		if cs.Sync["NA"].Durations.Len() == 0 || cs.Idx["NA"].Durations.Len() == 0 {
			t.Fatalf("completed %d SYNCHREP and %d INDEXBUILD cycles, want at least one each",
				cs.Sync["NA"].Durations.Len(), cs.Idx["NA"].Durations.Len())
		}
		requireHoldsBalanced(t, cs)
	})
}
