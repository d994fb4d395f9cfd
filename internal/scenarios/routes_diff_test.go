package scenarios

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/examples"
	"repro/internal/apps"
	"repro/internal/cascade"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/topology"
)

// routeSide is one of the two identically built platforms a differential
// run keeps: the production path expands on one, the oracle on the other,
// and everything observable must stay equal between them.
type routeSide struct {
	inf    *topology.Infrastructure
	router *oracleRouter               // oracle side only
	sc     map[string]*cascade.Scratch // production side only, per local DC
	mems   map[core.Occupancy]string   // server memory -> server name
	// shared counts the production side's plans that reuse a plan laid out
	// before them in their step: expander.Expand's shared-plan path.
	shared int
}

// newRouteSide builds one side on spec; on the production side every local
// DC's launcher reads one program table of the catalog ops, as a run's
// launchers of one catalog do.
func newRouteSide(t testing.TB, spec topology.InfraSpec, seed uint64, ops []cascade.Op) *routeSide {
	t.Helper()
	sim := core.NewSimulation(core.Config{Step: 0.01, Seed: seed})
	inf, err := topology.Build(sim, spec)
	if err != nil {
		t.Fatal(err)
	}
	s := &routeSide{inf: inf, router: newOracleRouter(inf),
		sc: map[string]*cascade.Scratch{}, mems: map[core.Occupancy]string{}}
	progs := cascade.NewPrograms(ops)
	for _, name := range inf.DCNames() {
		s.sc[name] = &cascade.Scratch{}
		s.sc[name].Share(progs)
		for _, tier := range inf.DC(name).Tiers {
			for _, srv := range tier.Servers {
				s.mems[srv.Mem] = srv.Name
			}
		}
	}
	return s
}

// mutate applies one WAN mutation to both platforms and tells the oracle's
// router what the old mutations told the route cache.
func mutate(prod, orc *routeSide, fn func(*topology.Infrastructure)) {
	fn(prod.inf)
	fn(orc.inf)
	orc.router.rerouted()
}

// bindable reports whether the old path could run op for the pair without
// panicking: every server role is hosted at its site or at the master, and a
// client role has a population to draw from.
func bindable(op cascade.Op, local, master *topology.DataCenter) bool {
	for _, step := range op.Steps {
		for _, m := range step {
			for _, e := range []cascade.End{m.From, m.To} {
				switch e.Role {
				case cascade.Client:
					if local.Clients == nil {
						return false
					}
				case cascade.Daemon:
				default:
					dc := local
					if e.Site == cascade.SiteMaster {
						dc = master
					}
					if !dc.HasTier(string(e.Role)) && !master.HasTier(string(e.Role)) {
						return false
					}
				}
			}
		}
	}
	return true
}

// diffOp launches op for (local, master) on both sides — through the
// launcher's Scratch on the production side, so compiled programs, tier
// tables and the route table persist from case to case — and compares every
// step stage by stage. It returns the production side's expansion error, if
// the step could not be routed.
func diffOp(t testing.TB, label string, prod, orc *routeSide, op cascade.Op, local, master string,
	balance func(*topology.Tier) *topology.Server) error {
	t.Helper()
	sc := prod.sc[local]
	pb := sc.NewBinding(prod.inf, prod.inf.DC(local), prod.inf.DC(master))
	ob := newOracleBinding(orc.router, orc.inf.DC(local), orc.inf.DC(master))
	pb.Balance, ob.Balance = balance, balance
	run, err := sc.Instantiate(op, pb)
	if !bindable(op, ob.Local, ob.Master) {
		if err == nil {
			t.Fatalf("%s: instantiated an operation the platform cannot bind", label)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer run.Expander.Retire()
	for step, msgs := range op.Steps {
		plans := run.Expand(step)
		want, oerr := ob.expandStep(msgs)
		if oerr != nil {
			perr := run.Expander.Err()
			if len(plans) != 0 || perr == nil || perr.Error() != oerr.Error() {
				t.Fatalf("%s step %d: oracle failed with %q, production returned %d plans and error %v",
					label, step, oerr, len(plans), perr)
			}
			return perr
		}
		if err := run.Expander.Err(); err != nil {
			t.Fatalf("%s step %d: production failed with %v, oracle expanded", label, step, err)
		}
		if len(plans) != len(want) {
			t.Fatalf("%s step %d: %d plans, oracle %d", label, step, len(plans), len(want))
		}
		for i := range plans {
			if slices.ContainsFunc(plans[:i], func(p core.MessagePlan) bool { return sharesStages(p, plans[i]) }) {
				prod.shared++
			}
		}
		for i := range want {
			diffPlans(t, fmt.Sprintf("%s step %d msg %d", label, step, i), prod, orc, plans[i], want[i])
		}
	}
	return nil
}

// sharesStages reports whether two plans are one layout.
func sharesStages(a, b core.MessagePlan) bool {
	return len(a.Stages) > 0 && len(b.Stages) > 0 && &a.Stages[0] == &b.Stages[0]
}

// diffPlans compares one message: stage by stage (agent, demand bits), then
// hold span by hold span (the server whose memory it holds, amount bits,
// first and last stage).
func diffPlans(t testing.TB, label string, prod, orc *routeSide, got, want core.MessagePlan) {
	t.Helper()
	if len(got.Stages) != len(want.Stages) {
		t.Fatalf("%s: %d stages, oracle %d", label, len(got.Stages), len(want.Stages))
	}
	for k := range want.Stages {
		g, w := got.Stages[k], want.Stages[k]
		switch {
		case g.Queue.ID() != w.Queue.ID() || g.Queue.Name() != w.Queue.Name():
			t.Fatalf("%s stage %d: agent %d %s, oracle %d %s", label, k, g.Queue.ID(), g.Queue.Name(), w.Queue.ID(), w.Queue.Name())
		case math.Float64bits(g.Demand) != math.Float64bits(w.Demand):
			t.Fatalf("%s stage %d: demand %v, oracle %v", label, k, g.Demand, w.Demand)
		}
	}
	if len(got.Holds) != len(want.Holds) {
		t.Fatalf("%s: %d hold spans, oracle %d", label, len(got.Holds), len(want.Holds))
	}
	for k := range want.Holds {
		g, w := got.Holds[k], want.Holds[k]
		switch {
		case prod.mems[g.Occ] == "" || prod.mems[g.Occ] != orc.mems[w.Occ]:
			t.Fatalf("%s hold %d: holds %q, oracle %q", label, k, prod.mems[g.Occ], orc.mems[w.Occ])
		case math.Float64bits(g.Amount) != math.Float64bits(w.Amount) || g.From != w.From || g.To != w.To:
			t.Fatalf("%s hold %d: %v over stages %d..%d, oracle %v over %d..%d", label, k,
				g.Amount, g.From, g.To, w.Amount, w.From, w.To)
		}
	}
}

// diffSideEffects compares what expansion leaves behind: every tier's
// round-robin cursor, every client pool's slot cursor and every server
// memory's RNG position. The cursors and streams are private, so each is
// read by drawing from it — on both sides alike, which keeps them in step.
func diffSideEffects(t testing.TB, label string, prod, orc *routeSide) {
	t.Helper()
	for _, name := range prod.inf.DCNames() {
		pdc, odc := prod.inf.DC(name), orc.inf.DC(name)
		if pdc.Clients != nil {
			if p, o := pdc.Clients.Next().Index, odc.Clients.Next().Index; p != o {
				t.Fatalf("%s: client-slot cursor of %s at %d, oracle %d", label, name, p, o)
			}
		}
		for tname, ptier := range pdc.Tiers {
			otier := odc.Tier(tname)
			if p, o := ptier.Pick().Name, otier.Pick().Name; p != o {
				t.Fatalf("%s: round-robin cursor of %s/%s at %s, oracle %s", label, name, tname, p, o)
			}
			for i, psrv := range ptier.Servers {
				for k := 0; k < 16; k++ {
					if psrv.Mem.Hit() != otier.Servers[i].Mem.Hit() {
						t.Fatalf("%s: memory RNG of %s diverged (draw %d)", label, psrv.Name, k)
					}
				}
			}
		}
	}
}

// routeState is one state of the WAN graph a differential run visits, in
// order; each entry mutates the graph the previous one left.
type routeState struct {
	name string
	fn   func(*topology.Infrastructure)
}

func routeStates(failA, failB, isolate string) []routeState {
	return []routeState{
		{"healthy", func(*topology.Infrastructure) {}},
		{"failed", func(inf *topology.Infrastructure) { inf.FailWAN(failA, failB) }},
		{"restored", func(inf *topology.Infrastructure) { inf.RestoreWAN(failA, failB) }},
		{"isolated", func(inf *topology.Infrastructure) { inf.IsolateDC(isolate) }},
		{"rejoined", func(inf *topology.Infrastructure) { inf.RejoinDC(isolate) }},
	}
}

var diffBalancers = []struct {
	name string
	fn   func(*topology.Tier) *topology.Server
}{
	{"round-robin", nil},
	{"least-loaded", (*topology.Tier).PickLeastLoaded},
	{"last-server", func(t *topology.Tier) *topology.Server { return t.Servers[len(t.Servers)-1] }},
}

// appCatalogue is every operation of the three applications plus one the
// catalogue has no reason to contain: messages whose two ends are the same
// role at different sites. Where the local site lacks the tier both ends
// fall back to one tier of the master, and which end gets which server then
// depends on the from-then-to resolution order.
func appCatalogue() []cascade.Op {
	ops := apps.CADOps(apps.VISFileMB * 4)
	ops = append(ops, apps.VISOps()...)
	ops = append(ops, apps.PDMOps()...)
	end := func(r cascade.Role, s cascade.Site) cascade.End { return cascade.End{Role: r, Site: s} }
	cost := cascade.R{CPUCycles: 1e8, NetBytes: 1e5, MemBytes: 1e6, DiskBytes: 1e6}
	return append(ops, cascade.Seq("SITE-ORDER",
		cascade.Msg{From: end(cascade.App, cascade.SiteLocal), To: end(cascade.App, cascade.SiteMaster), Cost: cost},
		cascade.Msg{From: end(cascade.DB, cascade.SiteMaster), To: end(cascade.DB, cascade.SiteLocal), Cost: cost},
		cascade.Msg{From: end(cascade.FS, cascade.SiteLocal), To: end(cascade.FS, cascade.SiteMaster), Cost: cost},
	))
}

// TestCompiledRoutesMatchOracle runs every operation of the application
// catalogue for every (local, master) pair of the consolidated, multi-master
// and chaos platforms through the compiled expansion path and through the
// map-walking path it replaced, across a WAN failure, its repair, a
// data-center blackout and its end — the transitions that invalidate
// compiled routes — and requires identical stages, identical errors and
// identical side effects, with no tolerance.
func TestCompiledRoutesMatchOracle(t *testing.T) {
	consolidated, err := decodeCase(examples.Consolidation, &CaseConfig{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := decodeCase(examples.MultiMaster, &CaseConfig{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	platforms := []struct {
		name                  string
		spec                  topology.InfraSpec
		failA, failB, isolate string
	}{
		{"consolidated", consolidated.Infrastructure, "NA", "AS1", "EU"},
		{"multimaster", multi.Infrastructure, "NA", "AS1", "AS1"},
		{"chaos", chaosPlatform(), "NA", "EU", "NA"},
	}
	ops := appCatalogue()
	for _, p := range platforms {
		t.Run(p.name, func(t *testing.T) {
			prod, orc := newRouteSide(t, p.spec, 11, ops), newRouteSide(t, p.spec, 11, ops)
			cases, unroutable := 0, 0
			for _, st := range routeStates(p.failA, p.failB, p.isolate) {
				mutate(prod, orc, st.fn)
				for i, op := range ops {
					for _, local := range prod.inf.DCNames() {
						for _, master := range prod.inf.DCNames() {
							bal := diffBalancers[(i+cases)%len(diffBalancers)]
							label := fmt.Sprintf("%s %s %s->%s %s", st.name, op.Name, local, master, bal.name)
							if diffOp(t, label, prod, orc, op, local, master, bal.fn) != nil {
								unroutable++
							}
							cases++
						}
					}
				}
				diffSideEffects(t, st.name, prod, orc)
			}
			if unroutable == 0 {
				t.Error("no case hit a partition: the isolated state is not exercising NoRouteError")
			}
			t.Logf("%d cases, %d stopped at a partition on both sides", cases, unroutable)
		})
	}
}

// fuzzPlatform is a three-site platform with every routing feature in a
// small build: NA hosts all four tiers, EU only file servers (so app, db and
// idx fall back to the master), AS1 file and application servers; a primary
// chain EU - NA - AS1 closed by an EU - AS1 backup; clients at NA and EU;
// caches that draw.
func fuzzPlatform() topology.InfraSpec {
	srv := topology.ServerSpec{
		CPU: hardware.CPUSpec{Sockets: 1, Cores: 4, GHz: 2.5}, MemGB: 16, CacheHitRate: 0.3, NICGbps: 10,
		RAID: &hardware.RAIDSpec{Disks: 2, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1}, CtrlGbps: 4, HitRate: 0.05},
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	tier := func(name string, n int) topology.TierSpec {
		return topology.TierSpec{Name: name, Servers: n, Server: srv, LocalLink: local}
	}
	dc := func(name string, tiers ...topology.TierSpec) topology.DCSpec {
		return topology.DCSpec{Name: name, SwitchGbps: 20,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5}, Tiers: tiers}
	}
	wan := hardware.LinkSpec{Gbps: 0.155, LatencyMS: 40}
	clients := topology.ClientSpec{Slots: 5, NICGbps: 1, GHz: 2.5, DiskMBs: 120}
	return topology.InfraSpec{
		DCs: []topology.DCSpec{
			dc("NA", tier("app", 3), tier("db", 2), tier("fs", 2), tier("idx", 1)),
			dc("EU", tier("fs", 3)),
			dc("AS1", tier("fs", 1), tier("app", 2)),
		},
		WAN: []topology.WANSpec{
			{From: "NA", To: "EU", Link: wan},
			{From: "NA", To: "AS1", Link: wan},
			{From: "EU", To: "AS1", Link: wan, Backup: true},
		},
		Clients: map[string]topology.ClientSpec{"NA": clients, "EU": clients},
	}
}

// fuzzOp builds an operation from two words: shape gives the step count and
// each step's width, pattern walks the (role, site) pairs, and the rng fills
// cost arrays in which every component is zero a quarter of the time. A
// third of the messages after a step's first repeat the one before them —
// same ends, same cost — as a fan-out's copies do.
func fuzzOp(shape, pattern uint64, rng *rand.Rand) cascade.Op {
	roles := []cascade.Role{cascade.Client, cascade.App, cascade.DB, cascade.FS, cascade.Idx, cascade.Daemon}
	end := func() cascade.End {
		e := cascade.End{Role: roles[pattern%6], Site: cascade.Site(pattern / 6 % 2)}
		pattern = pattern/12 | pattern<<60 // rotate: long operations keep varying
		return e
	}
	amount := func(scale float64) float64 {
		if rng.IntN(4) == 0 {
			return 0
		}
		return scale * (0.5 + rng.Float64())
	}
	op := cascade.Op{Name: "FUZZ"}
	for steps := 1 + shape%4; steps > 0; steps-- {
		shape /= 4
		var step []cascade.Msg
		for width := 1 + shape%3; width > 0; width-- {
			if len(step) > 0 && rng.IntN(3) == 0 {
				step = append(step, step[len(step)-1])
				continue
			}
			step = append(step, cascade.Msg{From: end(), To: end(), Cost: cascade.R{
				CPUCycles: amount(1e8), NetBytes: amount(1e5), MemBytes: amount(1e7), DiskBytes: amount(1e6),
			}})
		}
		shape /= 3
		op.Steps = append(op.Steps, step)
	}
	return op
}

// routeFuzzSeeds is the seed corpus of FuzzCompiledRoutesMatchOracle.
var routeFuzzSeeds = []struct {
	shape, pattern uint64
	pair, faults   uint8
	seed           uint64
}{
	{0, 0, 0, 0, 1},
	{0x1b, 0x0123456789abcdef, 1, 0x15, 2},
	{0xffff, 0xfedcba9876543210, 5, 0x2a, 3},
	{0x2d7, 0x5a5a5a5a5a5a5a5a, 7, 0xff, 4},
	{0x93, 0x1111111111111111, 3, 0x3c, 5},
	{0x6e, 0x0f1e2d3c4b5a6978, 8, 0x81, 6},
}

// FuzzCompiledRoutesMatchOracle is the differential test over generated
// operations: op shape, role/site pattern, data-center pair, which WAN
// mutations precede each launch, and the seed of the platform and the costs.
// The operation is launched three times on one pair of platforms, so compiled
// state is reused across the mutations in between.
func FuzzCompiledRoutesMatchOracle(f *testing.F) {
	for _, s := range routeFuzzSeeds {
		f.Add(s.shape, s.pattern, s.pair, s.faults, s.seed)
	}
	spec := fuzzPlatform()
	f.Fuzz(func(t *testing.T, shape, pattern uint64, pair, faults uint8, seed uint64) {
		diffFuzzedOp(t, spec, shape, pattern, pair, faults, seed)
	})
}

// TestRouteFuzzSeedsSharePlans: the seed corpus of
// FuzzCompiledRoutesMatchOracle repeats messages, so it holds
// expander.Expand's shared-plan path to the oracle too.
func TestRouteFuzzSeedsSharePlans(t *testing.T) {
	spec := fuzzPlatform()
	shared := 0
	for _, s := range routeFuzzSeeds {
		shared += diffFuzzedOp(t, spec, s.shape, s.pattern, s.pair, s.faults, s.seed)
	}
	if shared == 0 {
		t.Error("no seed laid out a shared plan")
	}
	t.Logf("%d plans shared over %d seeds", shared, len(routeFuzzSeeds))
}

// diffFuzzedOp is one input of FuzzCompiledRoutesMatchOracle; it returns
// how many of the production side's plans were shared.
func diffFuzzedOp(t *testing.T, spec topology.InfraSpec, shape, pattern uint64, pair, faults uint8, seed uint64) int {
	rng := rand.New(rand.NewPCG(seed, shape))
	op := fuzzOp(shape, pattern, rng)
	ops := []cascade.Op{op}
	prod, orc := newRouteSide(t, spec, seed, ops), newRouteSide(t, spec, seed, ops)
	dcs := prod.inf.DCNames()
	local, master := dcs[int(pair)%len(dcs)], dcs[int(pair)/len(dcs)%len(dcs)]
	mutations := []func(*topology.Infrastructure){
		func(inf *topology.Infrastructure) { inf.FailWAN("NA", "EU") },
		func(inf *topology.Infrastructure) { inf.IsolateDC("AS1") },
		func(inf *topology.Infrastructure) { inf.RestoreWAN("NA", "EU") },
		func(inf *topology.Infrastructure) { inf.RejoinDC("AS1") },
	}
	for round := 0; round < 3; round++ {
		for i, fn := range mutations {
			if faults>>((round*4+i)%8)&1 != 0 {
				mutate(prod, orc, fn)
			}
		}
		bal := diffBalancers[(int(faults)+round)%len(diffBalancers)]
		diffOp(t, fmt.Sprintf("round %d %s->%s %s", round, local, master, bal.name), prod, orc, op, local, master, bal.fn)
		diffSideEffects(t, fmt.Sprintf("round %d", round), prod, orc)
	}
	return prod.shared
}

// backupMeshPlatform is a five-site platform whose routing leans on backup
// links declared against name order: its data centers and its backups are
// listed from the last name to the first, and ties between equal-length
// paths are common, so a search that broke ties by declaration order, not
// by name, would pick other paths.
func backupMeshPlatform() topology.InfraSpec {
	srv := topology.ServerSpec{CPU: hardware.CPUSpec{Sockets: 1, Cores: 2, GHz: 2.5}, MemGB: 8, NICGbps: 10,
		RAID: &hardware.RAIDSpec{Disks: 1, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150}, CtrlGbps: 4}}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	wan := hardware.LinkSpec{Gbps: 0.155, LatencyMS: 40}
	spec := topology.InfraSpec{}
	for _, name := range []string{"ZA", "SA", "NA", "EU", "AS"} {
		spec.DCs = append(spec.DCs, topology.DCSpec{Name: name, SwitchGbps: 20,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers:      []topology.TierSpec{{Name: "app", Servers: 1, Server: srv, LocalLink: local}}})
	}
	for _, w := range [][2]string{{"NA", "EU"}, {"NA", "SA"}, {"EU", "AS"}} {
		spec.WAN = append(spec.WAN, topology.WANSpec{From: w[0], To: w[1], Link: wan})
	}
	for _, w := range [][2]string{{"ZA", "SA"}, {"ZA", "EU"}, {"SA", "AS"}, {"NA", "AS"}, {"EU", "SA"}} {
		spec.WAN = append(spec.WAN, topology.WANSpec{From: w[0], To: w[1], Link: wan, Backup: true})
	}
	return spec
}

// chaosDocumentPlatform reads the infrastructure of examples/chaos.json.
func chaosDocumentPlatform(t testing.TB) topology.InfraSpec {
	t.Helper()
	d, err := config.Load("../../examples/chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	return d.Infrastructure
}

// TestRouteRebuildMatchesOracle walks the WAN graphs of examples/chaos.json
// and of a backup-heavy mesh through fail/restore cycles of every
// connection, of every pair of connections together, and isolate/rejoin
// cycles of every data center, and requires Path for every ordered pair of
// data centers to equal the string-keyed search the index walk replaced
// (oracleRouter) after each change — the same path, or an error on both
// sides. A path handed out before a rebuild must not change under it. Last,
// a reroute followed by a rebuild of every cross-site route allocates
// nothing: the search runs on the infrastructure's scratch and each route
// refills its own fabric.
func TestRouteRebuildMatchesOracle(t *testing.T) {
	for _, p := range []struct {
		name string
		spec topology.InfraSpec
	}{{"chaos.json", chaosDocumentPlatform(t)}, {"backup-mesh", backupMeshPlatform()}} {
		t.Run(p.name, func(t *testing.T) {
			sim := core.NewSimulation(core.Config{Seed: 1})
			defer sim.Shutdown()
			inf, err := topology.Build(sim, p.spec)
			if err != nil {
				t.Fatal(err)
			}
			orc := newOracleRouter(inf)
			names := inf.DCNames()
			type held struct{ got, copy []string }
			var handedOut []held
			checks, partitioned := 0, 0
			check := func(state string) {
				t.Helper()
				for _, from := range names {
					for _, to := range names {
						got, gerr := inf.Path(from, to)
						want, werr := orc.Path(from, to)
						switch {
						case (gerr != nil) != (werr != nil):
							t.Fatalf("%s: %s -> %s: error %v, oracle error %v", state, from, to, gerr, werr)
						case gerr != nil:
							var noRoute *topology.NoRouteError
							if !errors.As(gerr, &noRoute) {
								t.Fatalf("%s: %s -> %s: error %v, want a *NoRouteError", state, from, to, gerr)
							}
							partitioned++
						case !slices.Equal(got, want):
							t.Fatalf("%s: %s -> %s: path %v, oracle %v", state, from, to, got, want)
						default:
							handedOut = append(handedOut, held{got, slices.Clone(got)})
						}
						checks++
					}
				}
				for _, h := range handedOut {
					if !slices.Equal(h.got, h.copy) {
						t.Fatalf("%s: a path handed out earlier changed from %v to %v", state, h.copy, h.got)
					}
				}
			}
			change := func(state string, fn func()) {
				t.Helper()
				fn()
				orc.rerouted()
				check(state)
			}
			check("healthy")
			for i, a := range p.spec.WAN {
				change("fail "+a.From+"-"+a.To, func() { inf.FailWAN(a.From, a.To) })
				for _, b := range p.spec.WAN[i+1:] {
					change("also fail "+b.From+"-"+b.To, func() { inf.FailWAN(b.From, b.To) })
					change("restore "+b.From+"-"+b.To, func() { inf.RestoreWAN(b.From, b.To) })
				}
				change("restore "+a.From+"-"+a.To, func() { inf.RestoreWAN(a.From, a.To) })
			}
			for _, dc := range names {
				change("isolate "+dc, func() { inf.IsolateDC(dc) })
				change("rejoin "+dc, func() { inf.RejoinDC(dc) })
			}
			if partitioned == 0 {
				t.Error("no state partitioned the platform: the error path went unchecked")
			}
			t.Logf("%d pairs compared, %d of them partitioned on both sides", checks, partitioned)

			// Failing the first connection leaves both platforms routable
			// through their backups, so no rebuild ends in an error (whose
			// value would be the one allocation a rebuild may make).
			first := p.spec.WAN[0]
			failed := false
			plan := core.MessagePlan{Stages: make([]core.Stage, 0, 4*len(names))}
			allocs := testing.AllocsPerRun(20, func() {
				if failed = !failed; failed {
					inf.FailWAN(first.From, first.To)
				} else {
					inf.RestoreWAN(first.From, first.To)
				}
				for _, from := range names {
					for _, to := range names {
						if from == to {
							continue
						}
						plan.Stages = plan.Stages[:0]
						if err := inf.AppendHop(&plan, topology.DaemonEndpoint(inf.DC(from)),
							topology.DaemonEndpoint(inf.DC(to)), topology.Cost{NetBytes: 1}); err != nil {
							t.Fatalf("%s -> %s: %v", from, to, err)
						}
					}
				}
			})
			if allocs != 0 {
				t.Errorf("a reroute and a rebuild of every route: %v allocations, want 0", allocs)
			}
		})
	}
}
