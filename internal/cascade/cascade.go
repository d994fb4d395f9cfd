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
type Op struct {
	Name  string
	Steps [][]Msg
}

// Seq builds an operation whose messages execute strictly in sequence.
func Seq(name string, msgs ...Msg) Op {
	op := Op{Name: name}
	for _, m := range msgs {
		op.Steps = append(op.Steps, []Msg{m})
	}
	return op
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
	scaled := Op{Name: name, Steps: make([][]Msg, len(op.Steps))}
	for i, step := range op.Steps {
		scaled.Steps[i] = make([]Msg, len(step))
		for j, m := range step {
			m.Cost = m.Cost.Scale(f)
			scaled.Steps[i][j] = m
		}
	}
	return scaled
}

// ScaleIO returns a copy with only the network and disk costs scaled —
// metadata operations are size-independent while OPEN/SAVE move the file
// payload (Table 5.1's analysis).
func (op Op) ScaleIO(name string, f float64) Op {
	scaled := Op{Name: name, Steps: make([][]Msg, len(op.Steps))}
	for i, step := range op.Steps {
		scaled.Steps[i] = make([]Msg, len(step))
		for j, m := range step {
			m.Cost.NetBytes *= f
			m.Cost.DiskBytes *= f
			scaled.Steps[i][j] = m
		}
	}
	return scaled
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
	owner *Scratch
}

// NewBinding builds a binding for a client at local, manipulating a file
// owned by master. The client slot is drawn from the local pool.
func NewBinding(inf *topology.Infrastructure, local, master *topology.DataCenter) *Binding {
	b := &Binding{Inf: inf, Local: local, Master: master}
	if local.Clients != nil {
		b.Slot = local.Clients.Next()
	}
	return b
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

// appendMsg appends the hardware stages of one compiled message: both ends
// resolved from-then-to — the order server picks, and therefore round-robin
// cursors, advance in — then the route between them.
func (b *Binding) appendMsg(dst []core.Stage, m uint8, tiers *siteTiers, cost R) ([]core.Stage, error) {
	from := b.endpoint(m>>4, tiers)
	to := b.endpoint(m&15, tiers)
	return b.Inf.AppendHop(dst, from, to, cost)
}

// Instantiate turns an operation definition plus a binding into a runnable
// core.OpRun. Expansion happens step by step at run time. The returned
// OpRun owns one stage buffer and one plan slice that every step's
// expansion reuses (see core.OpRun.Expand for the lifetime rule), so it
// drives a single flow. The operation is compiled on every call; launchers
// instantiate through a Scratch, which compiles once.
func Instantiate(op Op, b *Binding) (core.OpRun, error) {
	return instantiate(op, b, nil)
}

// Scratch is a launcher's expansion state: what it has compiled — each
// operation it launched, and the tiers of each (local, master) pair it bound
// — and the free lists of what its finished operations hand back (their
// stage buffer and plan slice, and their binding when Scratch.NewBinding
// made it) for the launcher's next operation to expand into. One launcher
// owns one Scratch; all its operations must start at one data center. The
// free lists grow to the launcher's peak number of operations in flight.
type Scratch struct {
	free     []*expander
	bindings []*Binding
	programs map[opKey]*program
	sites    []siteEntry
}

// opKey identifies an Op by its step table: an Op is immutable in shape
// once launched (its costs are re-read on every expansion).
type opKey struct {
	steps *[]Msg
	n     int
}

type siteEntry struct {
	local, master *topology.DataCenter
	tiers         *siteTiers
}

// program returns the launcher's compiled form of op, compiling it on first
// launch; without a launcher (nil sc) it compiles afresh.
func (sc *Scratch) program(op Op) (*program, error) {
	if sc == nil || len(op.Steps) == 0 {
		return compile(op) // an Op without steps fails validation in there
	}
	key := opKey{steps: &op.Steps[0], n: len(op.Steps)}
	if p := sc.programs[key]; p != nil {
		return p, nil
	}
	p, err := compile(op)
	if err != nil {
		return nil, err
	}
	if sc.programs == nil {
		sc.programs = make(map[opKey]*program)
	}
	sc.programs[key] = p
	return p, nil
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
	n := len(sc.bindings)
	if n == 0 {
		b := NewBinding(inf, local, master)
		b.owner = sc
		return b
	}
	b := sc.bindings[n-1]
	sc.bindings = sc.bindings[:n-1]
	b.Inf, b.Local, b.Master, b.owner = inf, local, master, sc
	if local.Clients != nil {
		b.Slot = local.Clients.Next()
	}
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
	if sc != nil && len(sc.free) > 0 {
		n := len(sc.free)
		x = sc.free[n-1]
		sc.free = sc.free[:n-1]
	} else {
		x = new(expander)
		x.expandFn, x.errFn = x.expand, x.takeErr
		if sc != nil {
			x.retireFn = func() { sc.retire(x) }
		} else {
			x.stages = make([]core.Stage, 0, p.oneShotStages(b))
			x.plans = make([]core.MessagePlan, 0, p.width)
		}
	}
	x.prog, x.tiers, x.steps, x.binding = p, tiers, op.Steps, b
	return core.OpRun{
		Name:     op.Name,
		DC:       b.Local.Name,
		NumSteps: len(op.Steps),
		Expand:   x.expandFn,
		Err:      x.errFn,
		Retire:   x.retireFn,
	}, nil
}

// retire takes back a finished operation's expansion state, dropping every
// pointer into the platform and the binding, and the binding itself when it
// came from NewBinding.
func (sc *Scratch) retire(x *expander) {
	if b := x.binding; b.owner == sc {
		*b = Binding{}
		sc.bindings = append(sc.bindings, b)
	}
	// Whole capacity: steps overwrite each other in place, so an earlier,
	// wider step's tail may still be there.
	clear(x.stages[:cap(x.stages)])
	clear(x.plans[:cap(x.plans)])
	*x = expander{
		stages: x.stages[:0], plans: x.plans[:0],
		expandFn: x.expandFn, errFn: x.errFn, retireFn: x.retireFn,
	}
	sc.free = append(sc.free, x)
}

// expander is the per-operation-instance expansion state: the flow's steps
// are strictly sequential, so one stage buffer and one plan slice serve
// them all. The funcs are bound once, so a recycled expander costs its next
// operation no closure.
type expander struct {
	prog    *program
	tiers   *siteTiers
	steps   [][]Msg // the Op's step table: step widths and cost arrays
	binding *Binding
	// next and off are the cursor into prog.msgs: step next starts at message
	// off. The flow expands steps in order, so the cursor is always right;
	// any other step is located by a scan.
	next, off int

	stages   []core.Stage
	plans    []core.MessagePlan
	err      error // why the last expand returned nothing
	expandFn func(int) []core.MessagePlan
	errFn    func() error
	retireFn func()
}

// takeErr is the OpRun.Err hook.
func (x *expander) takeErr() error { return x.err }

// expand runs one step of the compiled program: per message, endpoint
// patching and a copy of the route's fabric. The previous step's plans are
// dead, so their storage is overwritten in place (it only ever points into
// the platform, which outlives the operation; retire clears it). A message
// that cannot be routed abandons the step: expand returns nothing and the
// error waits in takeErr.
func (x *expander) expand(step int) []core.MessagePlan {
	if step != x.next {
		x.off = 0
		for _, msgs := range x.steps[:step] {
			x.off += len(msgs)
		}
	}
	msgs := x.steps[step]
	codes := x.prog.msgs[x.off : x.off+len(msgs)]
	x.next, x.off = step+1, x.off+len(msgs)

	stages, plans := x.stages[:0], x.plans[:0]
	for i, m := range codes {
		start := len(stages)
		var err error
		if stages, err = x.binding.appendMsg(stages, m, x.tiers, msgs[i].Cost); err != nil {
			x.err = err
			return nil
		}
		plans = append(plans, core.MessagePlan{Stages: stages[start:]})
	}
	// A grown buffer moved the earlier messages' stages: re-slice every plan
	// out of the final one, capped so no plan can append into its neighbour.
	off := 0
	for i := range plans {
		end := off + len(plans[i].Stages)
		plans[i].Stages = stages[off:end:end]
		off = end
	}
	x.stages, x.plans = stages, plans
	return plans
}
