package scenarios

import (
	"testing"

	"repro/internal/experiment"
)

// TestChaosFastForwardHitsFaultTicks is the jump-sizing guarantee for
// fault schedules: the controller is a source whose NextPoll is the exact
// next transition time, so fast-forward jumps may land on a fault tick but
// never cross it. The run must actually fast-forward (jumps > 0), apply
// both transitions at exactly their scheduled times, and reproduce the
// reference tick loop bit for bit.
func TestChaosFastForwardHitsFaultTicks(t *testing.T) {
	// Default loop: thinned arrivals leave quiet stretches, so the run
	// genuinely fast-forwards — and the fault must still land exactly.
	fast, err := ChaosExperiment()
	if err != nil {
		t.Fatal(err)
	}
	fastRes, err := fast.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.Stats.Jumps == 0 {
		t.Fatal("fast-forward never engaged; the test pins nothing")
	}
	if fastRes.Faults == nil {
		t.Fatal("no fault report")
	}
	ir := fastRes.Faults.Injections[0]
	if ir.InjectedAt != 120 {
		t.Errorf("injected at %v, want exactly 120 — a jump crossed the fault tick", ir.InjectedAt)
	}
	if ir.RecoveredAt != 240 {
		t.Errorf("recovered at %v, want exactly 240 — a jump crossed the recovery tick", ir.RecoveredAt)
	}
	if fastRes.Faults.TimeToReroute < 0 {
		t.Error("no diverted traffic observed on the backup link")
	}

	// Bit-identity of the production loop against the reference loop, with
	// thinning disabled on both sides: thinned arrivals are
	// distribution-identical across loops, not bit-identical, and this
	// comparison pins bits.
	digest := func(flags experiment.LoopFlags) string {
		e, err := ChaosExperiment(experiment.WithLoopFlags(flags))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults == nil || res.Faults.Injections[0].InjectedAt != 120 {
			t.Fatalf("flags %+v: fault not applied at 120", flags)
		}
		return res.Digest()
	}
	opt := digest(experiment.LoopFlags{NoThinning: true})
	ref := digest(experiment.LoopFlags{NoFastForward: true, NoThinning: true})
	if opt != ref {
		t.Errorf("chaos run diverged between the production and reference loops:\n%s\n%s", opt, ref)
	}
}

// TestGoldenChaos pins the full chaos scenario — partition, divert, drain —
// as a golden trace. The committed file includes the fault: series, so any
// change to transition timing, rebuild scheduling or the recovery probes
// shows up as a diff. Regenerate with -update only for intentional model
// changes.
func TestGoldenChaos(t *testing.T) {
	e, err := ChaosExperiment()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Sim.Shutdown()
	checkGolden(t, "golden_chaos", snapshotTrace(res.Sim))
}
