package cascade

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/topology"
)

// testInfra builds a master/slave pair: NA hosts app+db+fs, AUS hosts fs
// only, mirroring the consolidated platform shape of Chapter 6.
func testInfra(t *testing.T) (*core.Simulation, *topology.Infrastructure) {
	t.Helper()
	srv := topology.ServerSpec{
		CPU:     hardware.CPUSpec{Sockets: 1, Cores: 4, GHz: 2},
		MemGB:   32,
		NICGbps: 10,
		RAID: &hardware.RAIDSpec{
			Disks: 4, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
			CtrlGbps: 4, HitRate: 0,
		},
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	spec := topology.InfraSpec{
		DCs: []topology.DCSpec{
			{Name: "NA", SwitchGbps: 20, ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 1},
				Tiers: []topology.TierSpec{
					{Name: "app", Servers: 2, Server: srv, LocalLink: local},
					{Name: "db", Servers: 1, Server: srv, LocalLink: local},
					{Name: "fs", Servers: 1, Server: srv, LocalLink: local},
				}},
			{Name: "AUS", SwitchGbps: 20, ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 1},
				Tiers: []topology.TierSpec{
					{Name: "fs", Servers: 1, Server: srv, LocalLink: local},
				}},
		},
		WAN: []topology.WANSpec{
			{From: "NA", To: "AUS", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 90}},
		},
		Clients: map[string]topology.ClientSpec{
			"NA":  {Slots: 8, NICGbps: 1, GHz: 2, DiskMBs: 100},
			"AUS": {Slots: 8, NICGbps: 1, GHz: 2, DiskMBs: 100},
		},
	}
	sim := core.NewSimulation(core.Config{Step: 0.005, Seed: 11})
	inf, err := topology.Build(sim, spec)
	if err != nil {
		t.Fatal(err)
	}
	return sim, inf
}

func loginOp() Op {
	return Seq("LOGIN",
		Msg{From: End{Role: Client}, To: End{Role: App, Site: SiteMaster},
			Cost: R{CPUCycles: 2e8, NetBytes: 30e3, MemBytes: 5e6}},
		Msg{From: End{Role: App, Site: SiteMaster}, To: End{Role: DB, Site: SiteMaster},
			Cost: R{CPUCycles: 1e8, NetBytes: 10e3}},
		Msg{From: End{Role: DB, Site: SiteMaster}, To: End{Role: App, Site: SiteMaster},
			Cost: R{CPUCycles: 1e8, NetBytes: 10e3}},
		Msg{From: End{Role: App, Site: SiteMaster}, To: End{Role: Client},
			Cost: R{CPUCycles: 2e8, NetBytes: 250e3}},
	)
}

func TestOpValidate(t *testing.T) {
	if err := loginOp().Validate(); err != nil {
		t.Errorf("valid op rejected: %v", err)
	}
	bad := Op{Name: "X", Steps: [][]Msg{{{From: End{Role: "bogus"}, To: End{Role: App}}}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown role accepted")
	}
	if err := (Op{Name: "Y"}).Validate(); err == nil {
		t.Error("empty op accepted")
	}
	neg := loginOp()
	neg.Steps[0][0].Cost.NetBytes = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestOpTotalAndTierCosts(t *testing.T) {
	op := loginOp()
	total := op.TotalCost()
	if total.CPUCycles != 6e8 {
		t.Errorf("total cycles = %v", total.CPUCycles)
	}
	per := op.CostToTier()
	appCost := per[App]
	if appCost.CPUCycles != 3e8 {
		t.Errorf("app cycles = %v", appCost.CPUCycles)
	}
	clientCost := per[Client]
	if clientCost.NetBytes != 250e3 {
		t.Errorf("client bytes = %v", clientCost.NetBytes)
	}
}

func TestOpScaleVariants(t *testing.T) {
	op := loginOp()
	heavy := op.Scale("LOGIN-H", 2)
	if got := heavy.TotalCost().CPUCycles; got != 2*op.TotalCost().CPUCycles {
		t.Errorf("Scale cycles = %v", got)
	}
	io := op.ScaleIO("LOGIN-IO", 3)
	if got := io.TotalCost().CPUCycles; got != op.TotalCost().CPUCycles {
		t.Errorf("ScaleIO touched CPU: %v", got)
	}
	if got := io.TotalCost().NetBytes; got != 3*op.TotalCost().NetBytes {
		t.Errorf("ScaleIO bytes = %v", got)
	}
	// Originals untouched (deep copies).
	if op.TotalCost().NetBytes != 300e3 {
		t.Errorf("original mutated: %v", op.TotalCost().NetBytes)
	}
}

func TestRoundTrips(t *testing.T) {
	// Client (local) <-> app (master): every message crosses sites when
	// local != master... RoundTrips counts site-crossing messages.
	op := loginOp()
	if got := op.RoundTrips(); got != 2 {
		t.Errorf("RoundTrips = %d, want 2 (client<->master legs)", got)
	}
}

func TestInstantiateAndRunLocal(t *testing.T) {
	sim, inf := testInfra(t)
	na := inf.DC("NA")
	b := NewBinding(inf, na, na)
	run, err := Instantiate(loginOp(), b)
	if err != nil {
		t.Fatal(err)
	}
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			s.StartOp(run)
		}
	}))
	if err := sim.RunUntilIdle(30); err != nil {
		t.Fatal(err)
	}
	if n := sim.Responses.Count("LOGIN", "NA"); n != 1 {
		t.Errorf("LOGIN completions = %d", n)
	}
}

func TestRemoteClientPaysWANLatency(t *testing.T) {
	sim, inf := testInfra(t)
	na, aus := inf.DC("NA"), inf.DC("AUS")
	runFor := func(local *topology.DataCenter) float64 {
		b := NewBinding(inf, local, na)
		run, err := Instantiate(loginOp(), b)
		if err != nil {
			t.Fatal(err)
		}
		done := false
		sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
			if !done {
				done = true
				s.StartOp(run)
			}
		}))
		if err := sim.RunUntilIdle(60); err != nil {
			t.Fatal(err)
		}
		d, ok := sim.Responses.MeanAll("LOGIN", local.Name)
		if !ok {
			t.Fatal("no response")
		}
		return d
	}
	dNA := runFor(na)
	dAUS := runFor(aus)
	// Two WAN crossings at 90 ms each => at least 180 ms extra.
	if dAUS-dNA < 0.18 {
		t.Errorf("AUS latency penalty = %v, want >= 0.18", dAUS-dNA)
	}
}

func TestSessionAffinityWithinOp(t *testing.T) {
	_, inf := testInfra(t)
	na := inf.DC("NA")
	b := NewBinding(inf, na, na)
	e1, err := b.Resolve(End{Role: App, Site: SiteMaster})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := b.Resolve(End{Role: App, Site: SiteMaster})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Server() != e2.Server() {
		t.Error("same op resolved app tier to different servers")
	}
	// A different binding (next op) must rotate to the other server.
	b2 := NewBinding(inf, na, na)
	e3, err := b2.Resolve(End{Role: App, Site: SiteMaster})
	if err != nil {
		t.Fatal(err)
	}
	if e3.Server() == e1.Server() {
		t.Error("round robin did not rotate across operations")
	}
}

func TestMissingTierFallsBackToMaster(t *testing.T) {
	_, inf := testInfra(t)
	na, aus := inf.DC("NA"), inf.DC("AUS")
	b := NewBinding(inf, aus, na)
	// app tier does not exist in AUS: SiteLocal must fall back to master.
	ep, err := b.Resolve(End{Role: App, Site: SiteLocal})
	if err != nil {
		t.Fatal(err)
	}
	if ep.DC() != na {
		t.Errorf("app resolved to %s, want NA fallback", ep.DC().Name)
	}
	// fs exists locally and must stay local.
	ep, err = b.Resolve(End{Role: FS, Site: SiteLocal})
	if err != nil {
		t.Fatal(err)
	}
	if ep.DC() != aus {
		t.Errorf("fs resolved to %s, want AUS", ep.DC().Name)
	}
}

func TestEstimateMatchesSimulatedIsolatedRun(t *testing.T) {
	sim, inf := testInfra(t)
	na := inf.DC("NA")
	op := loginOp()
	est, err := Estimate(op, NewBinding(inf, na, na), sim.Clock().Step())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinding(inf, na, na)
	run, err := Instantiate(op, b)
	if err != nil {
		t.Fatal(err)
	}
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			s.StartOp(run)
		}
	}))
	if err := sim.RunUntilIdle(30); err != nil {
		t.Fatal(err)
	}
	got, _ := sim.Responses.MeanAll("LOGIN", "NA")
	if rel := math.Abs(got-est) / got; rel > 0.10 {
		t.Errorf("estimate %v vs simulated %v (rel err %.1f%%)", est, got, rel*100)
	}
}

func TestCalibrateClientWorkHitsTarget(t *testing.T) {
	sim, inf := testInfra(t)
	na := inf.DC("NA")
	step := sim.Clock().Step()
	target := 2.2 // LOGIN duration from Table 5.1 (average series)
	calibrated, err := CalibrateClientWork(loginOp(), NewBinding(inf, na, na), step, target)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(calibrated, NewBinding(inf, na, na), step)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-target) > 0.01 {
		t.Errorf("calibrated estimate = %v, want %v", est, target)
	}
	// And the simulated isolated run lands on the target too.
	b := NewBinding(inf, na, na)
	run, err := Instantiate(calibrated, b)
	if err != nil {
		t.Fatal(err)
	}
	launched := false
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if !launched {
			launched = true
			s.StartOp(run)
		}
	}))
	if err := sim.RunUntilIdle(30); err != nil {
		t.Fatal(err)
	}
	got, _ := sim.Responses.MeanAll("LOGIN", "NA")
	if math.Abs(got-target)/target > 0.05 {
		t.Errorf("simulated = %v, want %v within 5%%", got, target)
	}
}

func TestCalibrateRejectsImpossibleTarget(t *testing.T) {
	sim, inf := testInfra(t)
	na := inf.DC("NA")
	// Target far below the op's intrinsic cost must error.
	if _, err := CalibrateClientWork(loginOp(), NewBinding(inf, na, na),
		sim.Clock().Step(), 0.001); err == nil {
		t.Error("impossible calibration target accepted")
	}
}

// Property: Scale distributes over TotalCost for any factor.
func TestScaleDistributes(t *testing.T) {
	op := loginOp()
	f := func(raw uint8) bool {
		factor := float64(raw%50)/10 + 0.1
		scaled := op.Scale("S", factor)
		a := scaled.TotalCost()
		b := op.TotalCost().Scale(factor)
		return math.Abs(a.CPUCycles-b.CPUCycles) < 1 &&
			math.Abs(a.NetBytes-b.NetBytes) < 1 &&
			math.Abs(a.MemBytes-b.MemBytes) < 1 &&
			math.Abs(a.DiskBytes-b.DiskBytes) < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fanOp has a three-message parallel step between two single-message ones,
// so one step's plans share the expander's stage buffer.
func fanOp() Op {
	req := Msg{From: End{Role: Client}, To: End{Role: App, Site: SiteMaster},
		Cost: R{CPUCycles: 2e8, NetBytes: 30e3, MemBytes: 5e6, DiskBytes: 1e6}}
	resp := Msg{From: End{Role: App, Site: SiteMaster}, To: End{Role: Client},
		Cost: R{CPUCycles: 2e8, NetBytes: 250e3}}
	toFS := Msg{From: End{Role: Client}, To: End{Role: FS, Site: SiteLocal},
		Cost: R{CPUCycles: 1e8, NetBytes: 1e6, DiskBytes: 1e6}}
	return Op{Name: "FAN", Steps: [][]Msg{{req}, {toFS, req, toFS}, {resp}}}
}

// The plans of one step are cut out of one stage buffer and one hold buffer:
// each must hold exactly the stages and hold spans ExpandHop gives for its
// message, and none may be able to append into its neighbour.
func TestExpandPlansShareOneBufferWithoutAliasing(t *testing.T) {
	_, inf := testInfra(t)
	na, aus := inf.DC("NA"), inf.DC("AUS")
	op := fanOp()
	b := NewBinding(inf, aus, na)
	run, err := Instantiate(op, b)
	if err != nil {
		t.Fatal(err)
	}
	for s, msgs := range op.Steps {
		plans := run.Expand(s)
		if len(plans) != len(msgs) {
			t.Fatalf("step %d: %d plans for %d messages", s, len(plans), len(msgs))
		}
		for i, m := range msgs {
			from, _ := b.Resolve(m.From)
			to, _ := b.Resolve(m.To)
			want, err := inf.ExpandHop(from, to, m.Cost)
			if err != nil {
				t.Fatal(err)
			}
			got := plans[i].Stages
			if len(got) != len(want.Stages) || cap(got) != len(got) {
				t.Fatalf("step %d plan %d: len %d cap %d, want len = cap = %d", s, i, len(got), cap(got), len(want.Stages))
			}
			for k := range got {
				if got[k] != want.Stages[k] {
					t.Fatalf("step %d plan %d stage %d = %+v, want %+v", s, i, k, got[k], want.Stages[k])
				}
			}
			holds := plans[i].Holds
			if len(holds) != len(want.Holds) || cap(holds) != len(holds) {
				t.Fatalf("step %d plan %d: %d holds cap %d, want len = cap = %d", s, i, len(holds), cap(holds), len(want.Holds))
			}
			for k := range holds {
				if holds[k] != want.Holds[k] {
					t.Fatalf("step %d plan %d hold %d = %+v, want %+v", s, i, k, holds[k], want.Holds[k])
				}
			}
		}
	}
}

// A retired expander keeps its capacity and nothing else: no queue, no
// occupancy, no binding, no steps — and the launcher's next operation gets
// the same storage back.
func TestScratchRetiresCleanAndReuses(t *testing.T) {
	_, inf := testInfra(t)
	na := inf.DC("NA")
	var sc Scratch
	run, err := sc.Instantiate(fanOp(), NewBinding(inf, na, na))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < run.NumSteps; s++ {
		run.Expand(s)
	}
	run.Retire()
	if len(sc.free) != 1 {
		t.Fatalf("%d expanders on the free list after one retirement", len(sc.free))
	}
	x := sc.free[0]
	if x.binding != nil || x.steps != nil || len(x.stages) != 0 || len(x.holds) != 0 || len(x.plans) != 0 {
		t.Fatalf("retired expander still bound: %+v", x)
	}
	for _, st := range x.stages[:cap(x.stages)] {
		if st != (core.Stage{}) {
			t.Fatalf("retired stage buffer retains %+v", st)
		}
	}
	for _, h := range x.holds[:cap(x.holds)] {
		if h != (core.Hold{}) {
			t.Fatalf("retired hold buffer retains %+v", h)
		}
	}
	for _, p := range x.plans[:cap(x.plans)] {
		if p.Stages != nil || p.Holds != nil {
			t.Fatal("retired plan slice retains a stage or hold slice")
		}
	}
	if cap(x.stages) == 0 {
		t.Fatal("retired expander lost its stage buffer")
	}
	again, err := sc.Instantiate(loginOp(), NewBinding(inf, na, na))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.free) != 0 {
		t.Fatal("second operation did not take the retired expander")
	}
	if plans := again.Expand(0); len(plans) != 1 || len(plans[0].Stages) == 0 {
		t.Fatalf("recycled expander expanded step 0 into %v", plans)
	}
}

// A launcher compiles an operation once and each pair of sites once; what it
// recycles through Scratch.NewBinding comes back blank: no server picks, no
// balancer, no sites.
func TestScratchCompilesOnceAndRecyclesBindings(t *testing.T) {
	_, inf := testInfra(t)
	na, aus := inf.DC("NA"), inf.DC("AUS")
	var sc Scratch
	op := loginOp()
	launch := func(local, master *topology.DataCenter) *Binding {
		t.Helper()
		b := sc.NewBinding(inf, local, master)
		b.Balance = (*topology.Tier).PickLeastLoaded
		run, err := sc.Instantiate(op, b)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < run.NumSteps; s++ {
			if len(run.Expand(s)) == 0 {
				t.Fatalf("step %d expanded to nothing: %v", s, run.Err())
			}
		}
		run.Retire()
		return b
	}
	first := launch(aus, na)
	if first.Local != nil || first.Balance != nil || first.servers != [affinitySlots]*topology.Server{} {
		t.Fatalf("retired binding still bound: %+v", first)
	}
	if second := launch(na, na); second != first {
		t.Error("second launch did not reuse the retired binding")
	}
	launch(aus, na)
	if len(sc.programs) != 1 || len(sc.sites) != 2 {
		t.Errorf("%d programs and %d site tables after three launches of one operation over two site pairs, want 1 and 2",
			len(sc.programs), len(sc.sites))
	}

	// A caller-owned binding serves a whole series: it is never recycled.
	own := NewBinding(inf, na, na)
	run, err := sc.Instantiate(op, own)
	if err != nil {
		t.Fatal(err)
	}
	run.Expand(0)
	run.Retire()
	if own.Local != na || own.servers == [affinitySlots]*topology.Server{} || len(sc.bindings) != 1 {
		t.Error("a caller-owned binding was reset or taken onto the free list")
	}
}

// Expand locates a step through a cursor that assumes the flow's order;
// any other order must land on the same messages.
func TestExpandOutOfOrderMatchesInOrder(t *testing.T) {
	_, inf := testInfra(t)
	na := inf.DC("NA")
	op := fanOp()
	agents := func(run core.OpRun, step int) (ids []core.AgentID) {
		for _, p := range run.Expand(step) {
			for _, st := range p.Stages {
				ids = append(ids, st.Queue.ID())
			}
		}
		return ids
	}
	inOrder, err := Instantiate(op, NewBinding(inf, na, na))
	if err != nil {
		t.Fatal(err)
	}
	var want [][]core.AgentID
	for s := 0; s < inOrder.NumSteps; s++ {
		want = append(want, agents(inOrder, s))
	}
	// Same binding state (fresh platform), steps visited backwards and twice.
	_, inf2 := testInfra(t)
	na2 := inf2.DC("NA")
	shuffled, err := Instantiate(op, NewBinding(inf2, na2, na2))
	if err != nil {
		t.Fatal(err)
	}
	agents(shuffled, 0) // make the same server picks first
	for _, s := range []int{op.lastStep(), 0, op.lastStep(), 1 % len(op.Steps)} {
		got := agents(shuffled, s)
		if len(got) != len(want[s]) {
			t.Fatalf("step %d out of order: %d stages, in order %d", s, len(got), len(want[s]))
		}
		for i := range got {
			if got[i] != want[s][i] {
				t.Fatalf("step %d out of order: stage %d on agent %d, in order %d", s, i, got[i], want[s][i])
			}
		}
	}
}

func (op Op) lastStep() int { return len(op.Steps) - 1 }

// What cannot be bound is an error from Instantiate, not a panic at the
// first expansion: a client role without a client population, a server role
// no site hosts.
func TestInstantiateRejectsUnbindableOperations(t *testing.T) {
	_, inf := testInfra(t)
	na, aus := inf.DC("NA"), inf.DC("AUS")
	idx := Seq("REINDEX", Msg{From: End{Role: App, Site: SiteMaster}, To: End{Role: Idx, Site: SiteMaster},
		Cost: R{CPUCycles: 1e8, NetBytes: 1e4}})
	if _, err := Instantiate(idx, NewBinding(inf, aus, na)); err == nil {
		t.Error("instantiated an operation on a tier no site hosts")
	}
	if _, err := NewBinding(inf, aus, na).Resolve(End{Role: Idx}); err == nil {
		t.Error("resolved an endpoint on a tier no site hosts")
	}
	noClients := NewBinding(inf, na, na)
	noClients.Slot = nil
	if _, err := Instantiate(loginOp(), noClients); err == nil {
		t.Error("instantiated a client operation on a binding without a client slot")
	}
	if _, err := noClients.Resolve(End{Role: Client}); err == nil {
		t.Error("resolved a client endpoint without a client slot")
	}
	// An operation that names no client needs none.
	if _, err := Instantiate(Seq("SYNC", Msg{From: End{Role: Daemon, Site: SiteMaster}, To: End{Role: FS},
		Cost: R{CPUCycles: 1e8, NetBytes: 1e4}}), noClients); err != nil {
		t.Errorf("daemon operation on a binding without a client slot: %v", err)
	}
}

// A step that cannot be routed expands to nothing and leaves its reason in
// OpRun.Err; driven by a simulation, that ends the run with a typed error
// instead of a panic.
func TestUnroutableStepFailsTheSimulation(t *testing.T) {
	sim, inf := testInfra(t)
	na, aus := inf.DC("NA"), inf.DC("AUS")
	var sc Scratch
	run, err := sc.Instantiate(loginOp(), sc.NewBinding(inf, aus, na))
	if err != nil {
		t.Fatal(err)
	}
	inf.IsolateDC("AUS")
	var noRoute *topology.NoRouteError
	if plans := run.Expand(0); len(plans) != 0 || !errors.As(run.Err(), &noRoute) {
		t.Fatalf("expansion across a partition: %d plans, error %v", len(plans), run.Err())
	}
	sim.AddSource(core.SourceFunc(func(s *core.Simulation, now float64) {
		if now == 0 {
			r, err := sc.Instantiate(loginOp(), sc.NewBinding(inf, aus, na))
			if err != nil {
				t.Fatal(err)
			}
			s.StartOp(r)
		}
	}))
	err = sim.RunUntilIdle(10)
	var opErr *core.OpError
	if !errors.As(err, &opErr) || !errors.As(err, &noRoute) {
		t.Fatalf("RunUntilIdle = %v, want an *OpError around a *NoRouteError", err)
	}
	if opErr.Op != "LOGIN" || opErr.DC != "AUS" || opErr.At != 0 {
		t.Errorf("OpError %+v, want LOGIN from AUS at t=0", opErr)
	}
	if sim.Err() != err || sim.Clock().Now() > 1 {
		t.Errorf("simulation error %v at tick %d, want the run stopped at the first window", sim.Err(), sim.Clock().Now())
	}
	sim.RunFor(5)
	if sim.Clock().Now() > 1 {
		t.Error("a failed simulation kept advancing")
	}
}

// TestTierForMatchesResolve: the static tier resolver lands every server
// end on the data center Resolve serves it from, returns nil for client,
// daemon and unhosted ends, and picks no server doing so.
func TestTierForMatchesResolve(t *testing.T) {
	_, inf := testInfra(t)
	na, aus := inf.DC("NA"), inf.DC("AUS")
	for _, role := range []Role{Client, Daemon, App, DB, FS, Idx} {
		for _, site := range []Site{SiteLocal, SiteMaster} {
			e := End{Role: role, Site: site}
			tier := TierFor(e, aus, na)
			ep, err := NewBinding(inf, aus, na).Resolve(e)
			switch {
			case role == Client || role == Daemon || role == Idx:
				if tier != nil {
					t.Errorf("%v: TierFor = %s/%s, want nil", e, tier.DC.Name, tier.Name)
				}
			case err != nil:
				t.Fatalf("%v: %v", e, err)
			case tier == nil || tier.DC != ep.DC() || tier.Name != string(role):
				t.Errorf("%v: TierFor = %v, Resolve serves it from %s", e, tier, ep.DC().Name)
			}
		}
	}
	// Between two bindings' picks on NA's two-server app tier, TierFor
	// leaves the round-robin alone: the second binding gets the other server.
	app := End{Role: App, Site: SiteMaster}
	first, _ := NewBinding(inf, aus, na).Resolve(app)
	for i := 0; i < 3; i++ {
		TierFor(app, aus, na)
	}
	if second, _ := NewBinding(inf, aus, na).Resolve(app); second.Server() == first.Server() {
		t.Error("TierFor advanced the app tier's balancer")
	}
}
