package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/cascade"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/fluid"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/scenarios"
	"repro/internal/topology"
	wl "repro/internal/workload"
)

// probeNames lists every layer probe with its unit, in report order. A
// probe is a direct call into one layer's exported functions, on the
// platform of the workload being run where the layer lives on a platform,
// and on the chaos document for the layers only the document path runs
// (config, experiment.from_document, faults, fluid).
var probeNames = []struct{ name, unit string }{
	{"queueing.fcfs_step_ns", "ns"},
	{"queueing.fcfs_bulkstep_ns", "ns"},
	{"queueing.ps_step_ns", "ns"},
	{"queueing.horizon_ns", "ns"},
	{"queueing.erlangc_ns", "ns"},
	{"hardware.raid_request_ns", "ns"},
	{"hardware.raid_request_bytes", "B"},
	{"hardware.raid_request_allocs", "count"},
	{"hardware.san_request_ns", "ns"},
	{"hardware.san_request_bytes", "B"},
	{"hardware.cpu_task_ns", "ns"},
	{"hardware.link_transfer_ns", "ns"},
	{"topology.build_ms", "ms"},
	{"topology.expand_hop_ns", "ns"},
	{"topology.expand_hop_bytes", "B"},
	{"topology.expand_hop_allocs", "count"},
	{"topology.path_ns", "ns"},
	{"topology.partition_us", "us"},
	{"cascade.instantiate_ns", "ns"},
	{"cascade.instantiate_bytes", "B"},
	{"cascade.estimate_us", "us"},
	{"metrics.snapshot_ns", "ns"},
	{"metrics.record_ns", "ns"},
	{"workload.curve_ns", "ns"},
	{"core.idle_hour_ms", "ms"},
	{"dispatch.runshards_ns", "ns"},
	{"dispatch.sweep_ns", "ns"},
	{"config.decode_validate_us", "us"},
	{"experiment.from_document_us", "us"},
	{"experiment.digest_us", "us"},
	{"faults.attach_us", "us"},
	{"fluid.build_segments_us", "us"},
	{"fluid.derive_station_us", "us"},
	{"fluid.day10m_ms", "ms"},
}

// probeResult is the cost of one call.
type probeResult struct{ ns, bytes, allocs float64 }

// prober times batches of calls. fn runs n calls and returns the host time
// of the part that counts, so a probe can prepare its n targets untimed.
// Each probe calibrates n until a batch lasts about batch, then reports the
// median of five batches; with batch zero (the smoke size) it makes one
// call.
type prober struct {
	batch time.Duration
	out   map[string]float64
	errs  []error
}

func (p *prober) measure(fn func(n int) time.Duration) probeResult {
	return p.measureUpTo(1<<22, fn)
}

// measureUpTo is measure with a cap on the calls per batch, for probes
// whose untimed preparation dwarfs the call.
func (p *prober) measureUpTo(limit int, fn func(n int) time.Duration) probeResult {
	n := 1
	if p.batch > 0 {
		for {
			d := fn(n)
			if d >= p.batch || n >= limit {
				break
			}
			// Aim straight at the target, at most a tenfold step.
			n = min(limit, n*10, max(n+1, int(1.2*float64(n)*float64(p.batch)/float64(max(d, 1)))))
		}
	}
	rounds := 5
	if p.batch == 0 {
		rounds = 1
	}
	var m0, m1 runtime.MemStats
	per := make([]float64, rounds)
	runtime.ReadMemStats(&m0)
	for i := range per {
		per[i] = float64(fn(n)) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	calls := float64(rounds * n)
	return probeResult{
		ns:     median(per),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / calls,
		allocs: float64(m1.Mallocs-m0.Mallocs) / calls,
	}
}

// loop adapts a single call into a batch function.
func loop(call func()) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		return time.Since(t0)
	}
}

func (p *prober) ns(name string, call func()) { p.out[name] = p.measure(loop(call)).ns }
func (p *prober) us(name string, call func()) { p.out[name] = p.measure(loop(call)).ns / 1e3 }
func (p *prober) ms(name string, call func()) { p.out[name] = p.measure(loop(call)).ns / 1e6 }
func (p *prober) fail(name string, err error) {
	p.errs = append(p.errs, fmt.Errorf("%s: %w", name, err))
}

// platform is the built infrastructure the probes call into.
type platform struct {
	sim           *core.Simulation
	inf           *topology.Infrastructure
	step          float64
	local, master *topology.DataCenter
	ops           []cascade.Op
	// rebuild builds the bare platform again, for topology.build_ms.
	rebuild func() (*core.Simulation, error)
}

// wanOrClientLink is the platform's narrowest link on the local site's way
// to the master: the WAN link between them, or the client access link on a
// single-DC platform.
func (p *platform) wanOrClientLink() *hardware.Link {
	if l := p.inf.WANLink(p.local.Name, p.master.Name); l != nil {
		return l
	}
	return p.local.ClientLink
}

// buildPlatform materializes the workload's own platform with nothing
// attached. The consolidation spec is not exported, so its platform is
// reached through the scenario with clients and daemons disabled; the
// other two are topology.Build on the spec itself.
func buildPlatform(w workload, cfg runConfig, doc *config.Document) (*platform, error) {
	p := &platform{}
	var localName string
	var cad bool
	switch w.name {
	case "peak_hour", "peak_hour_sharded":
		var inf *topology.Infrastructure
		p.rebuild = func() (*core.Simulation, error) {
			cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
				Step: 0.01, Scale: 1, Seed: cfg.seed, StartHour: 13, EndHour: 14,
				DisableClients: true, DisableBackground: true,
			})
			if err != nil {
				return nil, err
			}
			inf = cs.Inf
			return cs.Sim, nil
		}
		sim, err := p.rebuild()
		if err != nil {
			return nil, err
		}
		p.sim, p.inf, p.step, localName, cad = sim, inf, 0.01, "EU", true
	default:
		spec, step := scenarios.ValidationInfraSpec(), 0.005
		localName, cad = "NA", true
		if w.name == "day_night" {
			step = 0.01
		}
		if w.name == "campaign" {
			spec, step, localName, cad = doc.Infrastructure, doc.Step, "EU", false
		}
		var inf *topology.Infrastructure
		p.rebuild = func() (*core.Simulation, error) {
			sim := core.NewSimulation(core.Config{Step: step, CollectEvery: 6000, Seed: cfg.seed})
			var err error
			inf, err = topology.Build(sim, spec)
			return sim, err
		}
		sim, err := p.rebuild()
		if err != nil {
			return nil, err
		}
		p.sim, p.inf, p.step = sim, inf, step
	}
	p.local, p.master = p.inf.DC(localName), p.inf.DC("NA")
	if cad {
		ops, err := apps.CalibratedCADOps(p.inf, p.master, p.master, p.step)
		if err != nil {
			return nil, err
		}
		p.ops = ops
	} else {
		p.ops = apps.PDMOps()
	}
	return p, nil
}

// nopAgent is the cheapest possible agent, for timing the sharded engine's
// dispatch alone.
type nopAgent struct{ core.AgentBase }

func (*nopAgent) Step(float64) {}
func (*nopAgent) Idle() bool   { return true }

// untilIdle steps an agent until its queues are empty and drops what it
// completed: one request's whole life inside a hardware agent.
func untilIdle(a core.Agent, dt float64) {
	for !a.Idle() {
		a.Step(dt)
	}
	a.Drain(func(*queueing.Task) {})
}

// runProbes calls every layer probe. last is the most recent iteration's
// harvest (for experiment.digest_us); remaining is what the run's budget
// has left, which sizes the batches.
func runProbes(w workload, cfg runConfig, last *experiment.Result, remaining time.Duration) (map[string]float64, []error) {
	p := &prober{out: map[string]float64{}}
	if cfg.sz.name == fullSize.name {
		// ~40 batches-worth per probe family; never below 1 ms or above 5 ms.
		p.batch = min(max(remaining/1200, time.Millisecond), 5*time.Millisecond)
	}
	raw, err := os.ReadFile(filepath.Join(cfg.root, chaosDocument))
	if err != nil {
		p.fail("chaos document", err)
		return p.out, p.errs
	}
	doc, err := config.Decode(bytes.NewReader(raw))
	if err != nil {
		p.fail("chaos document", err)
		return p.out, p.errs
	}
	doc.Seed = cfg.seed
	plat, err := buildPlatform(w, cfg, doc)
	if err != nil {
		p.fail("platform", err)
		return p.out, p.errs
	}
	defer plat.sim.Shutdown()

	probeQueueing(p, plat)
	probeHardware(p, plat, cfg)
	probeTopology(p, plat)
	probeCascade(p, plat)
	probeMetrics(p, plat)
	probeEngines(p, cfg)
	probeDocument(p, cfg, raw, doc, last)
	return p.out, p.errs
}

func probeQueueing(p *prober, plat *platform) {
	cpu := plat.master.Tier("app").Servers[0].CPU
	cores, rate := cpu.Spec().Cores, cpu.Rate()
	dt := plat.step

	// A socket at ~60% utilization: one 10-tick task arrives every
	// 10/(0.6*cores) ticks.
	fcfs := queueing.NewFCFS(cores, rate)
	every := max(1, int(10/(0.6*float64(cores))+0.5))
	i := 0
	done := func(*queueing.Task) {}
	p.ns("queueing.fcfs_step_ns", func() {
		if i%every == 0 {
			fcfs.Enqueue(&queueing.Task{ID: uint64(i), Demand: rate * dt * 10})
		}
		i++
		fcfs.Step(dt, done)
	})

	// Bulk: 100 quiet ticks over a full socket of long tasks.
	bulk := queueing.NewFCFS(cores, rate)
	for k := 0; k < cores; k++ {
		bulk.Enqueue(&queueing.Task{ID: uint64(k), Demand: rate * 1e9})
	}
	bulk.Step(dt, done)
	p.ns("queueing.fcfs_bulkstep_ns", func() { bulk.BulkStep(100, dt) })
	p.ns("queueing.horizon_ns", func() { bulk.Horizon() })

	// The platform's narrowest link as a processor-sharing queue.
	link := plat.wanOrClientLink()
	ps := queueing.NewPS(link.Rate(), 4096, link.Latency())
	j := 0
	p.ns("queueing.ps_step_ns", func() {
		if j%16 == 0 {
			ps.Enqueue(&queueing.Task{ID: uint64(j), Demand: link.Rate() * dt * 4})
		}
		j++
		ps.Step(dt, done)
	})

	c := plat.master.Tier("app").TotalCores()
	p.ns("queueing.erlangc_ns", func() {
		if _, err := queueing.ErlangC(c, 0.7*float64(c)); err != nil {
			p.fail("queueing.erlangc_ns", err)
		}
	})
}

func probeHardware(p *prober, plat *platform, cfg runConfig) {
	scratch := core.NewSimulation(core.Config{Step: plat.step, CollectEvery: 6000, Seed: cfg.seed})
	defer scratch.Shutdown()
	dt := plat.step
	task := &queueing.Task{ID: 1}
	request := func(a core.QueueAgent, demand float64) func() {
		return func() {
			task.Demand = demand
			a.Enqueue(task)
			untilIdle(a, dt)
		}
	}

	// One storage request of 1 MB through each storage holon the platform
	// has; zero where it has none.
	var raidSpec *hardware.RAIDSpec
	var sanSpec *hardware.SANSpec
	for _, name := range plat.inf.DCNames() {
		for _, t := range plat.inf.DC(name).Tiers {
			if t.SAN != nil && sanSpec == nil {
				s := t.SAN.Spec()
				sanSpec = &s
			}
			if r := t.Servers[0].RAID; r != nil && raidSpec == nil {
				s := r.Spec()
				raidSpec = &s
			}
		}
	}
	for _, k := range []string{"hardware.raid_request_ns", "hardware.raid_request_bytes", "hardware.raid_request_allocs",
		"hardware.san_request_ns", "hardware.san_request_bytes"} {
		p.out[k] = 0
	}
	if raidSpec != nil {
		r := p.measure(loop(request(hardware.NewRAID(scratch, "probe:raid", *raidSpec), 1<<20)))
		p.out["hardware.raid_request_ns"], p.out["hardware.raid_request_bytes"], p.out["hardware.raid_request_allocs"] = r.ns, r.bytes, r.allocs
	}
	if sanSpec != nil {
		r := p.measure(loop(request(hardware.NewSAN(scratch, "probe:san", *sanSpec), 1<<20)))
		p.out["hardware.san_request_ns"], p.out["hardware.san_request_bytes"] = r.ns, r.bytes
	}

	cpuSpec := plat.master.Tier("app").Servers[0].CPU.Spec()
	cpu := hardware.NewCPU(scratch, "probe:cpu", cpuSpec)
	p.ns("hardware.cpu_task_ns", request(cpu, cpu.Rate()*dt*10))

	src := plat.wanOrClientLink()
	link := hardware.NewLink(scratch, "probe:link", hardware.LinkSpec{
		Gbps: src.Rate() * 8 / 1e9, LatencyMS: src.Latency() * 1e3,
	})
	p.ns("hardware.link_transfer_ns", request(link, src.Rate()*dt*4))
}

func probeTopology(p *prober, plat *platform) {
	p.ms("topology.build_ms", func() {
		sim, err := plat.rebuild()
		if err != nil {
			p.fail("topology.build_ms", err)
			return
		}
		sim.Shutdown()
	})

	// A client at the local site sending to an application server at the
	// master: the common first hop of every operation.
	b := cascade.NewBinding(plat.inf, plat.local, plat.master)
	from, err := b.Resolve(cascade.End{Role: cascade.Client})
	if err != nil {
		p.fail("topology.expand_hop_ns", err)
		return
	}
	to := topology.ServerEndpoint(plat.master.Tier("app").Servers[0])
	cost := topology.Cost{CPUCycles: 2.5e7, NetBytes: 64 << 10, MemBytes: 1 << 20, DiskBytes: 1 << 20}
	r := p.measure(loop(func() {
		if _, err := plat.inf.ExpandHop(from, to, cost); err != nil {
			p.fail("topology.expand_hop_ns", err)
		}
	}))
	p.out["topology.expand_hop_ns"], p.out["topology.expand_hop_bytes"], p.out["topology.expand_hop_allocs"] = r.ns, r.bytes, r.allocs

	p.ns("topology.path_ns", func() {
		if _, err := plat.inf.Path(plat.local.Name, plat.master.Name); err != nil {
			p.fail("topology.path_ns", err)
		}
	})
	shards := min(workers(), len(plat.inf.DCNames()))
	p.us("topology.partition_us", func() {
		if _, err := plat.inf.PartitionByDC(shards); err != nil {
			p.fail("topology.partition_us", err)
		}
	})
}

func probeCascade(p *prober, plat *platform) {
	op := plat.ops[0]
	// What starting one operation costs the flow layer before any queue is
	// touched: a binding, the OpRun, and the expansion of every step.
	r := p.measure(loop(func() {
		run, err := cascade.Instantiate(op, cascade.NewBinding(plat.inf, plat.local, plat.master))
		if err != nil {
			p.fail("cascade.instantiate_ns", err)
			return
		}
		for s := 0; s < run.NumSteps; s++ {
			run.Expand(s)
		}
	}))
	p.out["cascade.instantiate_ns"], p.out["cascade.instantiate_bytes"] = r.ns, r.bytes
	p.us("cascade.estimate_us", func() {
		if _, err := cascade.Estimate(op, cascade.NewBinding(plat.inf, plat.local, plat.master), plat.step); err != nil {
			p.fail("cascade.estimate_us", err)
		}
	})
}

func probeMetrics(p *prober, plat *platform) {
	// A fresh collector per batch keeps the series from growing without
	// bound; the probes are the platform's own infrastructure probes.
	p.out["metrics.snapshot_ns"] = p.measure(func(n int) time.Duration {
		col := metrics.NewCollector()
		plat.inf.RegisterProbes(col)
		t0 := time.Now()
		for i := 1; i <= n; i++ {
			col.Snapshot(float64(i) * 60)
		}
		return time.Since(t0)
	}).ns
	p.out["metrics.record_ns"] = p.measure(func(n int) time.Duration {
		r := metrics.NewResponses()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r.Record("CAD OPEN", "NA", float64(i), 1.5)
		}
		return time.Since(t0)
	}).ns
	curve := wl.BusinessDay(950, 13, 22, 47.5)
	t, sink := 0.0, 0.0
	p.ns("workload.curve_ns", func() {
		sink += curve.At(t)
		t += 17
	})
	runtime.KeepAlive(sink)
}

func probeEngines(p *prober, cfg runConfig) {
	// The daemon-only consolidation hour: nothing but the jump machinery,
	// the calendar and two background daemons carry the clock.
	p.out["core.idle_hour_ms"] = p.measureUpTo(8, func(n int) time.Duration {
		var total time.Duration
		for i := 0; i < n; i++ {
			cs, err := scenarios.NewConsolidation(scenarios.CaseConfig{
				Step: 0.01, Scale: 1, Seed: cfg.seed, StartHour: 13, EndHour: 14, DisableClients: true,
			})
			if err != nil {
				p.fail("core.idle_hour_ms", err)
				return total
			}
			t0 := time.Now()
			cs.Sim.RunFor(3600 * cfg.sz.peakTimed / fullSize.peakTimed)
			total += time.Since(t0)
			cs.Sim.Shutdown()
		}
		return total
	}).ns / 1e6

	// The barrier round trip with nothing to do, and a sweep over agents
	// that do nothing: the floor under every sharded window.
	eng := dispatch.NewSharded(workers())
	defer eng.Shutdown()
	p.ns("dispatch.runshards_ns", func() { eng.RunShards(func(int) {}) })
	sim := core.NewSimulation(core.Config{Step: 0.01, CollectEvery: 6000})
	defer sim.Shutdown()
	agents := make([]core.Agent, 64)
	for i := range agents {
		a := &nopAgent{}
		a.InitAgent(sim.NextAgentID(), fmt.Sprintf("probe:nop:%d", i))
		sim.AddAgent(a)
		agents[i] = a
	}
	step := func(a core.Agent) { a.Step(0.01) }
	p.ns("dispatch.sweep_ns", func() { eng.Sweep(agents, step) })
}

func probeDocument(p *prober, cfg runConfig, raw []byte, doc *config.Document, last *experiment.Result) {
	p.us("config.decode_validate_us", func() {
		if _, err := config.Decode(bytes.NewReader(raw)); err != nil {
			p.fail("config.decode_validate_us", err)
		}
	})
	p.us("experiment.from_document_us", func() {
		if _, err := experiment.FromDocument(doc); err != nil {
			p.fail("experiment.from_document_us", err)
		}
	})
	p.out["experiment.digest_us"] = 0
	if last != nil {
		p.us("experiment.digest_us", func() { last.Digest() })
	}

	// Attach mutates its target, so every call gets a freshly built one,
	// prepared outside the timed part.
	build := func() (*core.Simulation, *topology.Infrastructure, error) {
		sim := core.NewSimulation(core.Config{Step: doc.Step, CollectEvery: 6000, Seed: cfg.seed})
		inf, err := topology.Build(sim, doc.Infrastructure)
		return sim, inf, err
	}
	inj := []faults.Injection{{
		Name: "atlantic", Fault: &faults.WAN{From: "NA", To: "EU", Mag: 1}, At: 300, Duration: 300,
	}}
	p.out["faults.attach_us"] = p.measureUpTo(32, func(n int) time.Duration {
		var total time.Duration
		for i := 0; i < n; i++ {
			sim, inf, err := build()
			if err != nil {
				p.fail("faults.attach_us", err)
				return total
			}
			t0 := time.Now()
			_, err = faults.Attach(faults.Target{Sim: sim, Infra: inf}, inj)
			total += time.Since(t0)
			if err != nil {
				p.fail("faults.attach_us", err)
			}
			sim.Shutdown()
		}
		return total
	}).ns / 1e3

	sim, inf, err := build()
	if err != nil {
		p.fail("fluid", err)
		return
	}
	defer sim.Shutdown()
	ops := apps.PDMOps()
	eu, na := inf.DC("EU"), inf.DC("NA")
	var st fluid.Station
	p.us("fluid.derive_station_us", func() {
		if st, err = fluid.DeriveStation(inf, eu, na, ops, nil, doc.Step); err != nil {
			p.fail("fluid.derive_station_us", err)
		}
	})
	w := doc.Workloads[0]
	p.us("fluid.build_segments_us", func() {
		if _, err := fluid.BuildSegments(w.Users.Scale(5e5), w.OpsPerUserHour, doc.Step, 24*3600,
			fluid.Config{Above: 1}, st, []fluid.Window{{Start: 300, End: 600}}); err != nil {
			p.fail("fluid.build_segments_us", err)
		}
	})
	hours := cfg.sz.dayNightHours
	p.ms("fluid.day10m_ms", func() {
		if _, err := scenarios.RunDayNightFluid(scenarios.DayNightConfig{Seed: cfg.seed, Hours: hours}); err != nil {
			p.fail("fluid.day10m_ms", err)
		}
	})
}
