// Package cascade implements the software-application model of GDISim
// (§3.5): operations defined as message cascades — collections of sequences
// of messages between holon roles, each carrying a resource-cost array R.
// Cascades are written once against abstract roles (client, application
// tier, database tier, ...) and bound to concrete data centers, servers and
// client slots when an operation instance launches, reproducing the paper's
// run-time placement: "the exact data center, server and hardware instances
// are decided at run-time by the simulator" (§3.5.2).
package cascade

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
)

// R is the hardware-agnostic cost array carried by every message (§3.3.2).
type R = topology.Cost

// Role names the holon type at one end of a message.
type Role string

// Holon roles of the data serving platform.
const (
	Client Role = "client" // a client workstation
	App    Role = "app"    // application server tier
	DB     Role = "db"     // database server tier
	FS     Role = "fs"     // file server tier
	Idx    Role = "idx"    // index server tier
	Daemon Role = "daemon" // background daemon process (R, I of §6.4.3)
)

// tierName maps server roles to topology tier names.
func (r Role) tierName() string { return string(r) }

// Site selects the data center hosting a message endpoint.
type Site uint8

const (
	// SiteLocal is the client's own data center — file servers serve
	// geographically proximal clients (§6.3.1).
	SiteLocal Site = iota
	// SiteMaster is the data center owning the manipulated file — all
	// metadata operations route there (§7.2.1; in Chapter 6 the master is
	// always DNA).
	SiteMaster
)

// End is one endpoint of a message: a role at a site.
type End struct {
	Role Role
	Site Site
}

// Msg is one message of a cascade with its cost array.
type Msg struct {
	From, To End
	Cost     R
}

// Op is a reusable operation definition: a sequence of steps, each step a
// set of messages issued in parallel (fork) that must all complete (join)
// before the next step starts. A plain request/response cascade is a
// sequence of single-message steps.
//
// The constructors here and in package apps build an operation packed: its
// Steps header and one []Msg that backs every step, two allocations in
// all, with each step capped at its own length so that an append to one
// never runs into the next. Equal sequential copies of one step may share
// its messages (Packer.Repeat). Nothing mutates an Op's steps once it is
// built and handed out.
type Op struct {
	Name  string
	Steps [][]Msg
}

// Packer lays one operation out packed, in a Steps header and a message
// array both sized up front: the caller knows the step and message counts
// and fills each step Step hands out.
type Packer struct {
	op   Op
	msgs []Msg // the part of the message array not handed out yet
}

// Pack starts a packed operation with room for steps steps holding msgs
// messages in all.
func Pack(name string, steps, msgs int) Packer {
	return Packer{op: Op{Name: name, Steps: make([][]Msg, 0, steps)}, msgs: make([]Msg, msgs)}
}

// Step appends a step of n messages, carved from the message array, and
// returns it to be filled.
func (p *Packer) Step(n int) []Msg {
	step := p.msgs[:n:n]
	p.msgs = p.msgs[n:]
	p.op.Steps = append(p.op.Steps, step)
	return step
}

// Repeat appends the last step again, sharing its messages: a step split
// into equal sequential copies stores its messages once.
func (p *Packer) Repeat() {
	p.op.Steps = append(p.op.Steps, p.op.Steps[len(p.op.Steps)-1])
}

// Op returns the operation laid out.
func (p *Packer) Op() Op { return p.op }

// Builder lays operations out step by step in scratch space it keeps and
// reuses, for catalogs whose step counts are easiest to state as code: a
// catalog costs the scratch once, and each operation the two allocations of
// whatever packs its Draft.
type Builder struct {
	msgs  []Msg
	ends  []int   // ends[i] is the end of step i in msgs
	steps [][]Msg // Draft's header
}

// Step adds a step of the given messages, issued in parallel.
func (b *Builder) Step(msgs ...Msg) {
	b.msgs = append(b.msgs, msgs...)
	b.ends = append(b.ends, len(b.msgs))
}

// Fan adds a step of n copies of m.
func (b *Builder) Fan(n int, m Msg) {
	for range n {
		b.msgs = append(b.msgs, m)
	}
	b.ends = append(b.ends, len(b.msgs))
}

// Draft returns the operation added since the last Draft, under name, and
// empties the builder. Its steps live in the builder's scratch: they are
// valid until the builder is next used, so the caller packs them at once
// (Op.Scale, or apps.ChunkHeavySteps).
func (b *Builder) Draft(name string) Op {
	b.steps = b.steps[:0]
	start := 0
	for _, end := range b.ends {
		b.steps = append(b.steps, b.msgs[start:end:end])
		start = end
	}
	b.msgs, b.ends = b.msgs[:0], b.ends[:0]
	return Op{Name: name, Steps: b.steps}
}

// Seq builds an operation whose messages execute strictly in sequence.
func Seq(name string, msgs ...Msg) Op {
	p := Pack(name, len(msgs), len(msgs))
	for _, m := range msgs {
		p.Step(1)[0] = m
	}
	return p.Op()
}

// Validate checks structural sanity: non-empty steps, client/daemon
// endpoints never used as server tiers, and costs non-negative.
func (op Op) Validate() error {
	if op.Name == "" {
		return fmt.Errorf("cascade: operation without a name")
	}
	if len(op.Steps) == 0 {
		return fmt.Errorf("cascade: operation %s has no steps", op.Name)
	}
	for i, step := range op.Steps {
		if len(step) == 0 {
			return fmt.Errorf("cascade: operation %s step %d is empty", op.Name, i)
		}
		for _, m := range step {
			for _, e := range [2]End{m.From, m.To} {
				if _, ok := endCode(e); !ok {
					return fmt.Errorf("cascade: operation %s uses unknown role %q", op.Name, e.Role)
				}
			}
			c := m.Cost
			if c.CPUCycles < 0 || c.NetBytes < 0 || c.MemBytes < 0 || c.DiskBytes < 0 {
				return fmt.Errorf("cascade: operation %s has negative cost %+v", op.Name, c)
			}
		}
	}
	return nil
}

// TotalCost sums the cost arrays over all messages of the operation.
func (op Op) TotalCost() R {
	var sum R
	for _, step := range op.Steps {
		for _, m := range step {
			sum = sum.Add(m.Cost)
		}
	}
	return sum
}

// CostToTier sums, per destination role, the cost arrays addressed to it —
// the per-tier demand used for capacity calibration.
func (op Op) CostToTier() map[Role]R {
	out := make(map[Role]R)
	for _, step := range op.Steps {
		for _, m := range step {
			out[m.To.Role] = out[m.To.Role].Add(m.Cost)
		}
	}
	return out
}

// Scale returns a copy of the operation with every cost multiplied by f,
// used to derive Light/Average/Heavy series variants (§5.2.2) and VIS from
// CAD (§6.3.2: "the volume of the data manipulated ... is considerably
// smaller").
func (op Op) Scale(name string, f float64) Op {
	return op.remap(name, func(c R) R { return c.Scale(f) })
}

// remap returns a packed copy of the operation under name, every cost
// passed through cost.
func (op Op) remap(name string, cost func(R) R) Op {
	n := 0
	for _, step := range op.Steps {
		n += len(step)
	}
	p := Pack(name, len(op.Steps), n)
	for _, step := range op.Steps {
		out := p.Step(len(step))
		for j, m := range step {
			m.Cost = cost(m.Cost)
			out[j] = m
		}
	}
	return p.Op()
}

// RoundTrips counts the sequential steps that cross between sites
// (Local <-> Master) — the S column of Table 6.2. Parallel messages within
// one step pay WAN latency concurrently, so a step counts once; operations
// with many crossing steps suffer most from latency.
func (op Op) RoundTrips() int {
	n := 0
	for _, step := range op.Steps {
		for _, m := range step {
			if m.From.Site != m.To.Site {
				n++
				break
			}
		}
	}
	return n
}

// Binding resolves cascade roles to concrete holons for one operation
// instance. Server choices are memoized per (role, site) so that all
// messages of one operation hit the same server — session affinity — while
// distinct operations spread across the tier via the balancer. Local, Master
// and Slot are fixed once an operation has been instantiated on the binding.
type Binding struct {
	Inf    *topology.Infrastructure
	Local  *topology.DataCenter
	Master *topology.DataCenter
	Slot   *topology.ClientSlot
	// Balance picks a server from a tier; nil selects round-robin.
	Balance func(*topology.Tier) *topology.Server

	// servers is the session-affinity table, indexed by affinitySlot and
	// filled lazily in the order endpoints are first resolved.
	servers [affinitySlots]*topology.Server
	// owner is the Scratch a recycled binding returns to when its one
	// operation retires; nil for caller-owned bindings (NewBinding).
	// nextFree links it into the owner's free list while retired.
	owner    *Scratch
	nextFree *Binding
}

// NewBinding builds a binding for a client at local, manipulating a file
// owned by master. The client slot is drawn from the local pool.
func NewBinding(inf *topology.Infrastructure, local, master *topology.DataCenter) *Binding {
	b := new(Binding)
	b.bind(inf, local, master)
	return b
}

// bind points b at its sites and draws its client slot from the local pool.
func (b *Binding) bind(inf *topology.Infrastructure, local, master *topology.DataCenter) {
	b.Inf, b.Local, b.Master = inf, local, master
	if local.Clients != nil {
		b.Slot = local.Clients.Next()
	}
}

// Resolve maps an endpoint reference to a concrete topology endpoint. It is
// the one-endpoint form of what a compiled operation does per message: the
// static half (endCode, siteTier) followed by the run-time half (endpoint).
func (b *Binding) Resolve(e End) (topology.Endpoint, error) {
	code, ok := endCode(e)
	if !ok {
		return topology.Endpoint{}, fmt.Errorf("cascade: unknown role %q", e.Role)
	}
	var tiers siteTiers
	switch {
	case code == endClient && b.Slot == nil:
		return topology.Endpoint{}, b.noClients()
	case code >= endServer:
		slot := code - endServer
		if tiers[slot] = siteTier(slot, b.Local, b.Master); tiers[slot] == nil {
			return topology.Endpoint{}, noTier(slot, b.Master)
		}
	}
	return b.endpoint(code, &tiers), nil
}

func (b *Binding) noClients() error {
	return fmt.Errorf("cascade: DC %s has no client population", b.Local.Name)
}

// endpoint is the run-time half of endpoint resolution — what the thesis
// decides per operation instance (§3.5.2): the client slot the binding drew,
// and for a server tier the instance serving this operation, picked by the
// balancer the first time the (role, site) pair is resolved and reused after.
func (b *Binding) endpoint(code uint8, tiers *siteTiers) topology.Endpoint {
	switch code {
	case endClient:
		return topology.ClientEndpoint(b.Slot)
	case endDaemonLocal:
		return topology.DaemonEndpoint(b.Local)
	case endDaemonMaster:
		return topology.DaemonEndpoint(b.Master)
	}
	slot := code - endServer
	srv := b.servers[slot]
	if srv == nil {
		if b.Balance != nil {
			srv = b.Balance(tiers[slot])
		} else {
			srv = tiers[slot].Pick()
		}
		b.servers[slot] = srv
	}
	return topology.ServerEndpoint(srv)
}

// appendMsg appends the hardware stages and hold span of one compiled
// message to plan: both ends resolved from-then-to — the order server picks,
// and therefore round-robin cursors, advance in — then the route between
// them.
func (b *Binding) appendMsg(plan *core.MessagePlan, m uint8, tiers *siteTiers, cost R) error {
	from := b.endpoint(m>>4, tiers)
	to := b.endpoint(m&15, tiers)
	return b.Inf.AppendHop(plan, from, to, cost)
}

// Instantiate turns an operation definition plus a binding into a runnable
// core.OpRun. Expansion happens step by step at run time. The returned
// OpRun owns one stage buffer, one hold buffer and one plan slice that every
// step's expansion reuses (see core.Expander for the lifetime rule), so it
// drives a single flow. The operation is compiled on every call; launchers
// instantiate through a Scratch, which reads its catalog's Programs.
func Instantiate(op Op, b *Binding) (core.OpRun, error) {
	return instantiate(op, b, nil)
}

// Scratch is a launcher's expansion state: the Programs of the catalog it
// launches from, the tiers of each (local, master) pair it bound, and the
// free lists of what its finished operations hand back (their stage, hold
// and plan buffers, and their binding when Scratch.NewBinding made it) for
// the launcher's next operation to expand into. One launcher owns one Scratch;
// all its operations must start at one data center. The free lists link
// their entries through the entries themselves, last retired first, so they
// hold the launcher's peak number of operations in flight without a table
// of their own to grow.
type Scratch struct {
	free     *expander
	bindings *Binding
	programs *Programs
	sites    []siteEntry
}

// Share makes the launcher read its operations' programs from p, the
// table of the catalog it launches from, which other launchers of the run
// may share. Every launcher has one: an operation outside p's catalog, or
// any operation of a Scratch without a table, compiles afresh on every
// launch, as the package-level Instantiate does.
func (sc *Scratch) Share(p *Programs) { sc.programs = p }

type siteEntry struct {
	local, master *topology.DataCenter
	tiers         *siteTiers
}

// program returns the compiled form of op from the launcher's table, which
// compiles it on its first launch; an operation the table does not hold
// (or a nil sc) compiles afresh.
func (sc *Scratch) program(op Op) (*program, error) {
	if sc != nil && sc.programs != nil {
		if p, err := sc.programs.program(op); p != nil || err != nil {
			return p, err
		}
	}
	return compile(op) // an Op without steps fails validation in there
}

// tiers returns the launcher's tier table for a pair of sites, resolving it
// on first use. A launcher binds few pairs — one local site, at most every
// data center as master — so the list is scanned.
func (sc *Scratch) tiers(local, master *topology.DataCenter) *siteTiers {
	if sc == nil {
		return resolveTiers(local, master)
	}
	for i := range sc.sites {
		if e := &sc.sites[i]; e.local == local && e.master == master {
			return e.tiers
		}
	}
	t := resolveTiers(local, master)
	sc.sites = append(sc.sites, siteEntry{local: local, master: master, tiers: t})
	return t
}

// NewBinding is the package-level NewBinding drawing on the free list. The
// binding serves exactly one operation — the next one instantiated on it
// through this Scratch — and returns to the list when that operation's flow
// finishes; the caller must not keep it.
func (sc *Scratch) NewBinding(inf *topology.Infrastructure, local, master *topology.DataCenter) *Binding {
	b := sc.bindings
	if b == nil {
		b = NewBinding(inf, local, master)
		b.owner = sc
		return b
	}
	sc.bindings, b.nextFree = b.nextFree, nil
	b.owner = sc
	b.bind(inf, local, master)
	return b
}

// Instantiate is the package-level Instantiate drawing on the compiled
// tables and the free lists.
func (sc *Scratch) Instantiate(op Op, b *Binding) (core.OpRun, error) {
	return instantiate(op, b, sc)
}

// instantiate builds the OpRun around a recycled expander of sc, or around a
// fresh one that retires to sc; a nil sc means nothing compiled is kept and
// nothing is recycled.
func instantiate(op Op, b *Binding, sc *Scratch) (core.OpRun, error) {
	p, err := sc.program(op)
	if err != nil {
		return core.OpRun{}, err
	}
	tiers := sc.tiers(b.Local, b.Master)
	if err := p.bindable(b, tiers); err != nil {
		return core.OpRun{}, err
	}
	var x *expander
	if sc != nil && sc.free != nil {
		x = sc.free
		sc.free, x.nextFree = x.nextFree, nil
	} else {
		x = newExpander(p.oneShotStages(b), p.width)
		x.sc = sc
	}
	if n := int(p.layouts); cap(x.holds) < n {
		x.holds = make([]core.Hold, 0, n)
	}
	x.prog, x.tiers, x.steps, x.binding = p, tiers, op.Steps, b
	return core.OpRun{
		Name:     op.Name,
		DC:       b.Local.Name,
		NumSteps: len(op.Steps),
		Expander: x,
	}, nil
}

// retire takes back a finished operation's expansion state, dropping every
// pointer into the platform and the binding, and the binding itself when it
// came from NewBinding.
func (sc *Scratch) retire(x *expander) {
	if b := x.binding; b.owner == sc {
		*b = Binding{nextFree: sc.bindings}
		sc.bindings = b
	}
	// Whole capacity: steps overwrite each other in place, so an earlier,
	// wider step's tail may still be there.
	clear(x.stages[:cap(x.stages)])
	clear(x.holds[:cap(x.holds)])
	clear(x.plans[:cap(x.plans)])
	*x = expander{stages: x.stages[:0], holds: x.holds[:0], plans: x.plans[:0], sc: sc, nextFree: sc.free}
	sc.free = x
}

// expander is the per-operation-instance expansion state: the flow's steps
// are strictly sequential, so one stage buffer, one hold buffer and one plan
// slice serve them all. The stage and hold buffers hold the plans a step
// lays out, not one per message: a run of repeated messages — a fan-out's
// apps.FanOut identical copies — shares at most two plans (Expand). A plan
// holds at most one span, so instantiate sizes the hold buffer to the
// program's layouts and expand never grows it; holdBuf backs it for steps
// laying out up to two plans, every built-in operation's, so an expander
// costs no hold allocation of its own. The stage buffer and plan slice are
// sized for the first operation when the expander is created
// (oneShotStages, width), whether it serves one operation or a launcher.
// The expander is the OpRun's core.Expander itself, so an operation costs
// no closure, and a new expander one allocation when a block of
// newExpander has its first operation's size, three otherwise.
type expander struct {
	prog    *program
	tiers   *siteTiers
	steps   [][]Msg // the Op's step table: step widths and cost arrays
	binding *Binding
	// next and off are the cursor into prog.msgs: step next starts at message
	// off. The flow expands steps in order, so the cursor is always right;
	// any other step is located by a scan.
	next, off int

	stages  []core.Stage
	holds   []core.Hold
	plans   []core.MessagePlan
	err     error // why the last expand returned nothing
	holdBuf [2]core.Hold

	// sc is the launcher the expander retires to (nil: none), and nextFree
	// links it into sc's free list while retired.
	sc       *Scratch
	nextFree *expander
}

// Expander blocks: a new expander and the stage and plan buffers of its
// first operation in one allocation, at exactly the sizes instantiate asks
// for, for the built-in operations: one message a step (the PDM catalog)
// and the eight-message fan-outs of the CAD and VIS catalogs, which lay out
// two plans a step, each on one site or two.
type (
	expanderBlock1x8 struct {
		x      expander
		stages [8]core.Stage
		plans  [1]core.MessagePlan
	}
	expanderBlock1x12 struct {
		x      expander
		stages [12]core.Stage
		plans  [1]core.MessagePlan
	}
	expanderBlock8x16 struct {
		x      expander
		stages [16]core.Stage
		plans  [8]core.MessagePlan
	}
	expanderBlock8x24 struct {
		x      expander
		stages [24]core.Stage
		plans  [8]core.MessagePlan
	}
)

// newExpander makes an expander with room for stages stages and width
// plans, in one block when one has that size, and its hold buffer on
// holdBuf.
func newExpander(stages, width int) *expander {
	var x *expander
	switch {
	case width == 1 && stages == 8:
		blk := new(expanderBlock1x8)
		x = &blk.x
		x.stages, x.plans = blk.stages[:0], blk.plans[:0]
	case width == 1 && stages == 12:
		blk := new(expanderBlock1x12)
		x = &blk.x
		x.stages, x.plans = blk.stages[:0], blk.plans[:0]
	case width == 8 && stages == 16:
		blk := new(expanderBlock8x16)
		x = &blk.x
		x.stages, x.plans = blk.stages[:0], blk.plans[:0]
	case width == 8 && stages == 24:
		blk := new(expanderBlock8x24)
		x = &blk.x
		x.stages, x.plans = blk.stages[:0], blk.plans[:0]
	default:
		x = new(expander)
		x.stages = make([]core.Stage, 0, stages)
		x.plans = make([]core.MessagePlan, 0, width)
	}
	x.holds = x.holdBuf[:0]
	return x
}

// Err implements core.Expander: why the last Expand returned nothing.
func (x *expander) Err() error { return x.err }

// Retire implements core.Expander: a launcher's expander goes back to its
// free list; one instantiated without a launcher is left to the collector.
func (x *expander) Retire() {
	if x.sc != nil {
		x.sc.retire(x)
	}
}

// Expand runs one step of the compiled program: per message, endpoint
// patching and a copy of the route's fabric. A message that repeats the one
// before it (repeats: same ends, same cost) resolves to the same servers
// over the same route, so only its memory draw can set it apart: it takes
// that draw, in message order, and shares the plan its run already laid out
// for the outcome, or lays out the other one. A run therefore costs at most
// two layouts, and its messages' plans share Stages and Holds. The previous
// step's plans are dead, so their storage is overwritten in place (it only
// ever points into the platform, which outlives the operation; retire
// clears it). A message that cannot be routed abandons the step before its
// draw: Expand returns nothing and the error waits in Err. Expand
// implements core.Expander.
func (x *expander) Expand(step int) []core.MessagePlan {
	if step != x.next {
		x.off = 0
		for _, msgs := range x.steps[:step] {
			x.off += len(msgs)
		}
	}
	msgs := x.steps[step]
	codes := x.prog.msgs[x.off : x.off+len(msgs)]
	x.next, x.off = step+1, x.off+len(msgs)

	// Every layout appends into one plan spanning the step and is cut out
	// of it, capped so no plan can append into its neighbour, with its hold
	// spans re-based onto its own stages. A buffer that grows leaves the
	// plans cut before it on the old array, which nothing writes again.
	all, plans := core.MessagePlan{Stages: x.stages[:0], Holds: x.holds[:0]}, x.plans[:0]
	inf := x.binding.Inf
	var from, to topology.Endpoint
	var laid [3]int // per draw outcome, 1 + the index of the run's plan laid out for it
	for i, m := range codes {
		cost, first := msgs[i].Cost, !repeats(codes, msgs, i)
		var d topology.Draw
		if first {
			// Ends resolve from-then-to, the order server picks, and
			// therefore round-robin cursors, advance in.
			from, to = x.binding.endpoint(m>>4, x.tiers), x.binding.endpoint(m&15, x.tiers)
			laid = [3]int{}
		} else if d = topology.TakeDraw(to, cost); laid[d] > 0 {
			plans = append(plans, plans[laid[d]-1])
			continue
		}
		start, held := len(all.Stages), len(all.Holds)
		var err error
		if first {
			d, err = inf.AppendHopDrawn(&all, from, to, cost)
		} else {
			err = inf.AppendHopAs(&all, from, to, cost, d)
		}
		if err != nil {
			x.err = err
			return nil
		}
		for j := held; j < len(all.Holds); j++ {
			all.Holds[j].From -= int32(start)
			all.Holds[j].To -= int32(start)
		}
		end, hend := len(all.Stages), len(all.Holds)
		plans = append(plans, core.MessagePlan{Stages: all.Stages[start:end:end], Holds: all.Holds[held:hend:hend]})
		laid[d] = len(plans)
	}
	x.stages, x.holds, x.plans = all.Stages, all.Holds, plans
	return plans
}
