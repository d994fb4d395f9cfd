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
			for _, e := range []End{m.From, m.To} {
				switch e.Role {
				case Client, App, DB, FS, Idx, Daemon:
				default:
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
// distinct operations spread across the tier via the balancer.
type Binding struct {
	Inf    *topology.Infrastructure
	Local  *topology.DataCenter
	Master *topology.DataCenter
	Slot   *topology.ClientSlot
	// Balance picks a server from a tier; nil selects round-robin.
	Balance func(*topology.Tier) *topology.Server

	servers map[End]*topology.Server
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

// site returns the data center for a site selector.
func (b *Binding) site(s Site) *topology.DataCenter {
	if s == SiteMaster {
		return b.Master
	}
	return b.Local
}

// Resolve maps an endpoint reference to a concrete topology endpoint.
func (b *Binding) Resolve(e End) (topology.Endpoint, error) {
	dc := b.site(e.Site)
	switch e.Role {
	case Client:
		if b.Slot == nil {
			return topology.Endpoint{}, fmt.Errorf("cascade: DC %s has no client population", b.Local.Name)
		}
		return topology.ClientEndpoint(b.Slot), nil
	case Daemon:
		return topology.DaemonEndpoint(dc), nil
	default:
		// Tiers missing at the chosen site fall back to the master — in
		// Chapter 6 slave DCs host only file servers, so app/db/idx
		// messages route to the MDC regardless of the site selector.
		if !dc.HasTier(e.Role.tierName()) {
			dc = b.Master
		}
		tier := dc.Tier(e.Role.tierName())
		if b.servers == nil {
			b.servers = make(map[End]*topology.Server)
		}
		key := End{Role: e.Role, Site: e.Site}
		srv := b.servers[key]
		if srv == nil {
			if b.Balance != nil {
				srv = b.Balance(tier)
			} else {
				srv = tier.Pick()
			}
			b.servers[key] = srv
		}
		return topology.ServerEndpoint(srv), nil
	}
}

// Instantiate turns an operation definition plus a binding into a runnable
// core.OpRun. Expansion happens step by step at run time. The returned
// OpRun owns one stage buffer and one plan slice that every step's
// expansion reuses (see core.OpRun.Expand for the lifetime rule), so it
// drives a single flow.
func Instantiate(op Op, b *Binding) (core.OpRun, error) {
	return instantiate(op, b, nil)
}

// Scratch is a launcher's free list of expansion state: operations
// instantiated through it hand their stage buffer and plan slice back when
// their flow finishes (core.OpRun.Retire), and the launcher's next
// operation expands into them. One launcher owns one Scratch; all its
// operations must start at one data center, which confines the list to that
// data center's lane (or the sequential phase) under the sharded runtime,
// so it needs no locking. It grows to the launcher's peak number of
// operations in flight.
type Scratch struct{ free []*expander }

// Instantiate is the package-level Instantiate drawing on the free list.
func (sc *Scratch) Instantiate(op Op, b *Binding) (core.OpRun, error) {
	return instantiate(op, b, sc)
}

// instantiate builds the OpRun around a recycled expander of sc, or around a
// fresh one that retires to sc; a nil sc means no recycling.
func instantiate(op Op, b *Binding, sc *Scratch) (core.OpRun, error) {
	if err := op.Validate(); err != nil {
		return core.OpRun{}, err
	}
	var x *expander
	if sc != nil && len(sc.free) > 0 {
		n := len(sc.free)
		x = sc.free[n-1]
		sc.free = sc.free[:n-1]
	} else {
		x = new(expander)
		x.expandFn = x.expand
		if sc != nil {
			x.retireFn = func() { sc.retire(x) }
		}
	}
	x.steps, x.binding = op.Steps, b
	return core.OpRun{
		Name: op.Name,
		DC:   b.Local.Name,
		// A binding whose master is the local site resolves every endpoint
		// inside one data center (missing-tier fallback also lands on the
		// master, i.e. the same DC), so the whole cascade is shard-confined
		// and eligible for stretched-span execution.
		Local:    b.Local == b.Master,
		NumSteps: len(op.Steps),
		Expand:   x.expandFn,
		Retire:   x.retireFn,
	}, nil
}

// retire takes back a finished operation's expansion state, dropping every
// pointer into the platform and the binding.
func (sc *Scratch) retire(x *expander) {
	clear(x.stages)
	clear(x.plans)
	x.stages, x.plans = x.stages[:0], x.plans[:0]
	x.steps, x.binding = nil, nil
	sc.free = append(sc.free, x)
}

// expander is the per-operation-instance expansion state: the flow's steps
// are strictly sequential, so one stage buffer and one plan slice serve
// them all. The two funcs are bound once, so a recycled expander costs its
// next operation no closure.
type expander struct {
	steps    [][]Msg
	binding  *Binding
	stages   []core.Stage
	plans    []core.MessagePlan
	expandFn func(int) []core.MessagePlan
	retireFn func()
}

func (x *expander) expand(step int) []core.MessagePlan {
	// The previous step's plans are dead; drop their queue and occupancy
	// pointers before the storage is reused.
	clear(x.stages)
	clear(x.plans)
	stages, plans := x.stages[:0], x.plans[:0]
	for _, m := range x.steps[step] {
		from, err := x.binding.Resolve(m.From)
		if err != nil {
			panic(err)
		}
		to, err := x.binding.Resolve(m.To)
		if err != nil {
			panic(err)
		}
		start := len(stages)
		stages, err = x.binding.Inf.AppendHop(stages, from, to, m.Cost)
		if err != nil {
			panic(err)
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
