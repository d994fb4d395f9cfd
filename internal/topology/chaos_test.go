package topology

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
)

// backupSpec is twoDCSpec plus a thin NA-EU backup link, so failing the
// primary leaves a detour.
func backupSpec() InfraSpec {
	spec := twoDCSpec()
	spec.WAN = append(spec.WAN, WANSpec{From: "NA", To: "EU",
		Link: hardware.LinkSpec{Gbps: 0.045, LatencyMS: 80}, Backup: true})
	return spec
}

// TestFailWANInFlight pins the complete-then-divert semantics of link
// failure: a transfer already enqueued on a link when it fails completes
// at full rate as if the link were healthy, while every message expanded
// after the failure routes around it. This is the documented contract of
// Link.Fail / Infrastructure.FailWAN — changing it changes every chaos
// result, so it is pinned here.
func TestFailWANInFlight(t *testing.T) {
	sim := core.NewSimulation(core.Config{Step: 0.001, Seed: 5})
	defer sim.Shutdown()
	inf, err := Build(sim, backupSpec())
	if err != nil {
		t.Fatal(err)
	}
	na, eu := inf.DC("NA"), inf.DC("EU")

	// Expand while healthy: the plan pins the primary link.
	plan, err := inf.ExpandHop(ClientEndpoint(na.Clients.Next()),
		ServerEndpoint(eu.Tier("fs").Pick()), Cost{NetBytes: 1e6, CPUCycles: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			s.StartOp(core.OpRun{
				Name: "INFLIGHT", DC: "NA", NumSteps: 1,
				Expander: core.ExpandFunc(func(int) []core.MessagePlan { return []core.MessagePlan{plan} }),
			})
		}
	}))

	// 1e6 bytes over a 155 Mbps link takes ~52 ms; fail the link 10 ms in,
	// with the transfer unquestionably in flight.
	sim.RunFor(0.010)
	if sim.ActiveFlows() != 1 {
		t.Fatalf("in-flight flows = %d, want the transfer mid-link", sim.ActiveFlows())
	}
	inf.FailWAN("NA", "EU")
	if err := sim.RunUntilIdle(30); err != nil {
		t.Fatal(err)
	}

	// Complete: the in-flight transfer finished over the failed primary.
	if n := sim.Responses.Count("INFLIGHT", "NA"); n != 1 {
		t.Fatalf("in-flight op completions = %d, want 1 (complete-then-divert)", n)
	}
	if got := inf.WANLink("NA", "EU").TakeBusy(); got < 1e6*0.99 {
		t.Errorf("failed primary carried %v bytes, want the full ~1e6 in-flight transfer", got)
	}
	if got := inf.BackupLink("NA", "EU").TakeBusy(); got != 0 {
		t.Errorf("backup carried %v bytes before any post-failure expansion", got)
	}

	// Divert: the same hop expanded after the failure uses the backup.
	plan2, err := inf.ExpandHop(ClientEndpoint(na.Clients.Next()),
		ServerEndpoint(eu.Tier("fs").Pick()), Cost{NetBytes: 1e6, CPUCycles: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	launched2 := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched2 {
			launched2 = true
			s.StartOp(core.OpRun{
				Name: "DIVERTED", DC: "NA", NumSteps: 1,
				Expander: core.ExpandFunc(func(int) []core.MessagePlan { return []core.MessagePlan{plan2} }),
			})
		}
	}))
	if err := sim.RunUntilIdle(60); err != nil {
		t.Fatal(err)
	}
	if n := sim.Responses.Count("DIVERTED", "NA"); n != 1 {
		t.Fatalf("diverted op completions = %d", n)
	}
	if got := inf.BackupLink("NA", "EU").TakeBusy(); got < 1e6*0.99 {
		t.Errorf("backup carried %v bytes after failure, want ~1e6", got)
	}
}

func TestDegradeWANScalesBothDirections(t *testing.T) {
	sim := core.NewSimulation(core.Config{Step: 0.001, Seed: 5})
	defer sim.Shutdown()
	inf, err := Build(sim, twoDCSpec())
	if err != nil {
		t.Fatal(err)
	}
	fwd, rev := inf.WANLink("NA", "EU"), inf.WANLink("EU", "NA")
	healthy := fwd.Rate()

	inf.DegradeWAN("NA", "EU", 0.5)
	if fwd.Rate() != healthy*0.5 || rev.Rate() != healthy*0.5 {
		t.Errorf("degraded rates = %v / %v, want both at half of %v", fwd.Rate(), rev.Rate(), healthy)
	}
	if fwd.Failed() || rev.Failed() {
		t.Error("degraded link reports failed")
	}
	if _, err := inf.Path("NA", "EU"); err != nil {
		t.Errorf("degraded link dropped from routing: %v", err)
	}

	inf.RepairWAN("NA", "EU")
	if fwd.Rate() != healthy || rev.Rate() != healthy || fwd.Degraded() {
		t.Error("repair did not restore spec rate")
	}
}

func TestIsolateDCFailsEveryTouchingLink(t *testing.T) {
	sim := core.NewSimulation(core.Config{Step: 0.001, Seed: 5})
	defer sim.Shutdown()
	inf, err := Build(sim, backupSpec())
	if err != nil {
		t.Fatal(err)
	}
	inf.IsolateDC("EU")
	if _, err := inf.Path("NA", "EU"); err == nil {
		t.Error("isolated DC still routable (backup must fail too)")
	}
	inf.RejoinDC("EU")
	if _, err := inf.Path("NA", "EU"); err != nil {
		t.Errorf("rejoined DC unreachable: %v", err)
	}
}

func TestBackupArrivalsCountsOnlyBackups(t *testing.T) {
	sim := core.NewSimulation(core.Config{Step: 0.001, Seed: 5})
	defer sim.Shutdown()
	inf, err := Build(sim, backupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.BackupArrivals(); got != 0 {
		t.Fatalf("idle backup arrivals = %d", got)
	}
	na, eu := inf.DC("NA"), inf.DC("EU")
	inf.FailWAN("NA", "EU")
	plan, err := inf.ExpandHop(ClientEndpoint(na.Clients.Next()),
		ServerEndpoint(eu.Tier("fs").Pick()), Cost{NetBytes: 1e5, CPUCycles: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			s.StartOp(core.OpRun{
				Name: "BK", DC: "NA", NumSteps: 1,
				Expander: core.ExpandFunc(func(int) []core.MessagePlan { return []core.MessagePlan{plan} }),
			})
		}
	}))
	if err := sim.RunUntilIdle(30); err != nil {
		t.Fatal(err)
	}
	if got := inf.BackupArrivals(); got == 0 {
		t.Error("diverted traffic not counted in BackupArrivals")
	}
}

// The compiled route table answers from the WAN graph as of the last
// mutation: every FailWAN/RestoreWAN/IsolateDC/RejoinDC invalidates it, a
// partition is a typed *NoRouteError from Path and from AppendHop alike, and
// same-DC messages never consult it.
func TestRouteTableFollowsWANMutations(t *testing.T) {
	sim := core.NewSimulation(core.Config{Step: 0.001, Seed: 5})
	defer sim.Shutdown()
	inf, err := Build(sim, backupSpec())
	if err != nil {
		t.Fatal(err)
	}
	na, eu := inf.DC("NA"), inf.DC("EU")
	from := ServerEndpoint(na.Tier("app").Servers[0])
	to := ServerEndpoint(eu.Tier("fs").Servers[0])
	cost := Cost{CPUCycles: 1e6, NetBytes: 1e4}
	wanOf := func() *hardware.Link {
		t.Helper()
		var plan core.MessagePlan
		if err := inf.AppendHop(&plan, from, to, cost); err != nil {
			t.Fatal(err)
		}
		for _, st := range plan.Stages {
			if l, ok := st.Queue.(*hardware.Link); ok && (l == inf.WANLink("NA", "EU") || l == inf.BackupLink("NA", "EU")) {
				return l
			}
		}
		t.Fatal("cross-DC hop crossed no WAN link")
		return nil
	}
	if wanOf() != inf.WANLink("NA", "EU") {
		t.Error("healthy platform routed over the backup")
	}
	inf.FailWAN("NA", "EU")
	if wanOf() != inf.BackupLink("NA", "EU") {
		t.Error("route compiled before FailWAN survived it")
	}
	inf.RestoreWAN("NA", "EU")
	if wanOf() != inf.WANLink("NA", "EU") {
		t.Error("route compiled during the failure survived RestoreWAN")
	}

	inf.IsolateDC("EU")
	var noRoute *NoRouteError
	plan := core.MessagePlan{Stages: make([]core.Stage, 1, 16), Holds: make([]core.Hold, 1, 4)}
	if err := inf.AppendHop(&plan, from, to, cost); !errors.As(err, &noRoute) || len(plan.Stages) != 1 || len(plan.Holds) != 1 {
		t.Errorf("AppendHop across a partition: %d stages, %d holds, error %v; want the plan unextended and a *NoRouteError",
			len(plan.Stages), len(plan.Holds), err)
	} else if noRoute.From != "NA" || noRoute.To != "EU" {
		t.Errorf("no route %s -> %s, want NA -> EU", noRoute.From, noRoute.To)
	}
	if _, err := inf.Path("EU", "NA"); !errors.As(err, &noRoute) {
		t.Errorf("Path across a partition: %v, want a *NoRouteError", err)
	}
	if _, err := inf.Path("NA", "nowhere"); !errors.As(err, &noRoute) {
		t.Errorf("Path to an unknown DC: %v, want a *NoRouteError", err)
	}
	// Inside the isolated DC nothing changed: the local switch, no table.
	local := ServerEndpoint(eu.Tier("fs").Servers[0])
	if err := inf.AppendHop(&core.MessagePlan{}, ClientEndpoint(&eu.Clients.Slots[0]), local, cost); err != nil {
		t.Errorf("same-DC hop inside an isolated DC: %v", err)
	}
	inf.RejoinDC("EU")
	if wanOf() != inf.WANLink("NA", "EU") {
		t.Error("rejoined DC not routed over the primary")
	}
}
