package scenarios

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
)

// TestMailboxAuditContract pins the "off" shape of Simulation.MailboxAudit
// across the engine matrix: exactly (0, 0, false), mirrored as zeros in
// RunStats, whenever nothing was delivered through a shard inbox — the
// sharded runtime off (sequential engine, NoShards), stretching off
// (NoStretch: every window runs on the root, hand-offs enqueue inline), and
// the production grain gate on a platform this small, where every span is
// refused and the whole run goes inline without a barrier. The "on" shape
// (applied > 0, minSlack >= 0, true) on this same platform needs the gate
// forced open and is pinned, with the stretch and chaos guarantees, by
// internal/core's scenario_test.go (TestMailboxDueTimeSafety,
// TestStretchBarrierDrop, TestChaosStretchBarriers).
func TestMailboxAuditContract(t *testing.T) {
	if testing.Short() {
		t.Skip("mailbox audit contract skipped in -short")
	}
	for _, tc := range []struct {
		name    string
		eng     core.Engine
		flags   core.LoopFlags
		sharded bool
	}{
		{"sequential", &core.SequentialEngine{}, core.LoopFlags{}, false},
		{"noshards", dispatch.NewSharded(4), core.LoopFlags{NoShards: true}, false},
		{"default-gate", dispatch.NewSharded(4), core.LoopFlags{}, true},
		{"nostretch", dispatch.NewSharded(4), core.LoopFlags{NoStretch: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := NewConsolidation(CaseConfig{
				Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4,
				Engine: tc.eng, LoopFlags: tc.flags,
			})
			if err != nil {
				t.Fatal(err)
			}
			cs.Run()
			if applied, minSlack, ok := cs.Sim.MailboxAudit(); applied != 0 || minSlack != 0 || ok {
				t.Errorf("MailboxAudit = (%d, %d, %v), want the off shape (0, 0, false)", applied, minSlack, ok)
			}
			st := cs.Result.Stats
			if st.MailboxApplied != 0 || st.MailboxMinSlack != 0 {
				t.Errorf("RunStats mailbox fields (%d, %d) nonzero with the audit off", st.MailboxApplied, st.MailboxMinSlack)
			}
			if st.Barriers != 0 || st.WindowsStretched != 0 {
				t.Errorf("%d barriers, %d stretched windows; want none on a platform below the grain", st.Barriers, st.WindowsStretched)
			}
			if (st.WindowsInline > 0) != tc.sharded {
				t.Errorf("WindowsInline = %d with the sharded runtime on = %v", st.WindowsInline, tc.sharded)
			}
		})
	}
}

// TestAutoShards pins the "sharded:auto" resolution rule on both surfaces:
// the helper itself and a compiled document.
func TestAutoShards(t *testing.T) {
	if n := experiment.AutoShards(1); n != 1 {
		t.Errorf("AutoShards(1) = %d, want 1", n)
	}
	if n := experiment.AutoShards(0); n < 1 {
		t.Errorf("AutoShards(0) = %d, want >= 1", n)
	}
	for _, dcs := range []int{1, 2, 7, 64} {
		n := experiment.AutoShards(dcs)
		if n < 1 || n > dcs && dcs >= 1 {
			t.Errorf("AutoShards(%d) = %d out of [1, %d]", dcs, n, dcs)
		}
	}
	if _, err := experiment.ParseEngine("sharded:auto"); err != nil {
		t.Errorf("ParseEngine(sharded:auto): %v", err)
	}
	if _, err := experiment.ParseEngine("sharded:nope"); err == nil {
		t.Error("ParseEngine(sharded:nope) accepted a malformed count")
	} else if want := "sharded:auto"; !strings.Contains(err.Error(), want) {
		t.Errorf("shard-count error %q does not mention %q", err, want)
	}
}
