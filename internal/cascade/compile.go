package cascade

import (
	"fmt"

	"repro/internal/topology"
)

// This file is the static half of cascade expansion: what can be decided
// about an operation before an instance of it exists. An Op compiles, once
// per table of the catalog it belongs to (Programs), into a program, one byte per message naming its two ends, and
// each (local, master) pair of data centers a launcher binds resolves,
// once, into the tiers behind the server roles (siteTiers). What stays a
// run-time decision, made per instance in Binding.endpoint and topology's
// hop expansion in the order messages expand: the client slot, the server
// each (role, site) pair picks, every memory-hit draw, and the WAN route of
// the moment. Programs hold indices, not stages.

// End codes: the dense numbering of everything a message end can be. A
// server end is endServer plus its affinity slot, so the code also indexes
// the binding's session-affinity table and the site's tier table.
const (
	endClient       uint8 = iota // the binding's client slot
	endDaemonLocal               // the daemon process of the local site
	endDaemonMaster              // the daemon process of the master site
	endServer                    // + affinitySlot: a server of that tier
)

// affinitySlots is the number of (server role, site) pairs: the size of a
// binding's session-affinity table and of a site's tier table.
const affinitySlots = 8

// slotRoles lists the server roles in affinity-slot order, two slots each
// (local site, then master site).
var slotRoles = [affinitySlots / 2]Role{App, DB, FS, Idx}

// endCode numbers an End; ok is false for an unknown role.
func endCode(e End) (code uint8, ok bool) {
	switch e.Role {
	case Client:
		return endClient, true
	case Daemon:
		if e.Site == SiteMaster {
			return endDaemonMaster, true
		}
		return endDaemonLocal, true
	}
	for i, r := range slotRoles {
		if e.Role == r {
			code = endServer + uint8(2*i)
			if e.Site == SiteMaster {
				code++
			}
			return code, true
		}
	}
	return 0, false
}

// program is a compiled Op. It is independent of where the operation runs:
// the sites enter through siteTiers.
type program struct {
	// msgs holds one byte per message, steps concatenated: the from end's
	// code in the high nibble, the to end's in the low one.
	msgs []uint8
	// slots is the set of affinity slots the messages use, as a bit mask;
	// usesClient is set when a message starts or ends at a client.
	slots      uint8
	usesClient bool
	// layouts is the most plans a step lays out, a run of identical
	// messages counting at most two (expander.Expand); an int32 beside the
	// flags keeps a catalog's program slab at 40 bytes an operation.
	layouts int32
	// width is the message count of the widest step.
	width int
}

// compile validates the operation and numbers every message's ends.
func compile(op Op) (*program, error) {
	p := new(program)
	if err := p.compile(op, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// compile validates op and fills p with it, its message codes appended to
// msgs, which is made at op's message count when it has no room for them.
func (p *program) compile(op Op, msgs []uint8) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if n := op.messages(); cap(msgs)-len(msgs) < n {
		msgs = make([]uint8, 0, n)
	}
	*p = program{msgs: msgs}
	for _, step := range op.Steps {
		p.width = max(p.width, len(step))
		for _, m := range step {
			from, _ := endCode(m.From) // Validate has vetted the roles
			to, _ := endCode(m.To)
			p.msgs = append(p.msgs, from<<4|to)
			for _, c := range [2]uint8{from, to} {
				if c >= endServer {
					p.slots |= 1 << (c - endServer)
				} else if c == endClient {
					p.usesClient = true
				}
			}
		}
		p.layouts = max(p.layouts, int32(layouts(p.msgs[len(p.msgs)-len(step):], step)))
	}
	return nil
}

// Programs is the compiled form of one operation catalog, shared by every
// launcher of a run that launches from it (Scratch.Share): an operation
// compiles on its first launch by any of them and every later launch reads
// that program. The programs of the whole catalog are one slab and their
// message codes another, made at the catalog's size, so a catalog costs
// three allocations however many operations and launchers it has. A run's
// launchers are polled by one goroutine, so they share a table without
// locking; tables are not shared across runs.
type Programs struct {
	ops []Op
	// progs[i] is ops[i] compiled once its width is set; its message codes
	// are carved from one array made for the whole catalog.
	progs []program
}

// NewPrograms makes the table for the catalog ops; nothing is compiled yet.
// The catalog must not change while the table is in use.
func NewPrograms(ops []Op) *Programs {
	t := &Programs{ops: ops, progs: make([]program, len(ops))}
	n := 0
	for _, op := range ops {
		n += op.messages()
	}
	msgs := make([]uint8, n)
	for i, op := range ops {
		n := op.messages()
		t.progs[i].msgs, msgs = msgs[:0:n], msgs[n:]
	}
	return t
}

// messages returns the operation's message count over all steps.
func (op Op) messages() int {
	n := 0
	for _, step := range op.Steps {
		n += len(step)
	}
	return n
}

// Compiled returns how many of the catalog's operations have compiled.
func (t *Programs) Compiled() int {
	n := 0
	for i := range t.progs {
		if t.progs[i].width > 0 {
			n++
		}
	}
	return n
}

// Ops returns the catalog the table compiles; nil for a nil table.
func (t *Programs) Ops() []Op {
	if t == nil {
		return nil
	}
	return t.ops
}

// program returns the compiled form of op, compiling it on its first use,
// or nil when op is not of the catalog. An operation is the catalog's when
// it has the same step table: an Op is immutable in shape once launched
// (its costs are re-read on every expansion).
func (t *Programs) program(op Op) (*program, error) {
	for i := range t.ops {
		steps := t.ops[i].Steps
		if len(steps) == 0 || len(steps) != len(op.Steps) || &steps[0] != &op.Steps[0] {
			continue
		}
		return t.compiled(i)
	}
	return nil, nil
}

// compiled returns the catalog's operation i compiled, compiling it on its
// first use.
func (t *Programs) compiled(i int) (*program, error) {
	p := &t.progs[i]
	if p.width == 0 {
		if err := p.compile(t.ops[i], p.msgs[:0]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// bindable reports why the program cannot run on the binding: it needs a
// client slot the binding lacks, or a tier neither site hosts.
func (p *program) bindable(b *Binding, tiers *siteTiers) error {
	if p.usesClient && b.Slot == nil {
		return b.noClients()
	}
	for slot := uint8(0); slot < affinitySlots; slot++ {
		if p.slots&(1<<slot) != 0 && tiers[slot] == nil {
			return noTier(slot, b.Master)
		}
	}
	return nil
}

// repeats reports whether message i of a step, compiled into codes,
// repeats message i-1: the same end codes and the same cost. It then
// resolves to the same ends and routes the same way, so a run of repeats
// lays out at most two plans, one per outcome of the memory draw
// (expander.Expand).
func repeats(codes []uint8, msgs []Msg, i int) bool {
	return i > 0 && codes[i] == codes[i-1] && msgs[i].Cost == msgs[i-1].Cost
}

// layouts counts the plans a step compiled into codes lays out at most:
// one per message, but at most two per run of repeats.
func layouts(codes []uint8, msgs []Msg) int {
	n, run := 0, 0
	for i := range msgs {
		run++
		if !repeats(codes, msgs, i) {
			run = 1
		}
		if run <= 2 {
			n++
		}
	}
	return n
}

// messageStages is the stage room one message is given: eight stages — NIC,
// link, switch, link, NIC and up to three processing stages — plus a WAN
// hop (link, far switch) each way of slack when the sites differ.
func messageStages(b *Binding) int {
	if b.Local == b.Master {
		return 8
	}
	return 12
}

// oneShotStages sizes the stage buffer of a new expander (its plan slice
// gets width): the room of one message per plan the program's busiest step
// lays out. An underestimate costs a buffer growth, nothing else. A
// launcher's recycled expander keeps the buffers it was created or grown
// with, so its operations rarely grow them.
func (p *program) oneShotStages(b *Binding) int { return messageStages(b) * int(p.layouts) }

// siteTiers is the tier behind every affinity slot for one (local, master)
// pair of data centers, the missing-tier fallback applied; nil where
// neither site hosts the role.
type siteTiers [affinitySlots]*topology.Tier

// siteTier resolves one slot. Tiers missing at the chosen site fall back to
// the master — in Chapter 6 slave DCs host only file servers, so app/db/idx
// messages route to the MDC regardless of the site selector.
func siteTier(slot uint8, local, master *topology.DataCenter) *topology.Tier {
	name := slotRoles[slot/2].tierName()
	if slot%2 == 0 {
		if t := local.Tiers[name]; t != nil {
			return t
		}
	}
	return master.Tiers[name]
}

// TierFor is the static half of resolving a server end: the tier behind e
// for a client at local working on a file owned by master, the missing-tier
// fallback applied. It picks no server and draws no randomness. Nil when e
// is not a server end or neither site hosts its role.
func TierFor(e End, local, master *topology.DataCenter) *topology.Tier {
	code, ok := endCode(e)
	if !ok || code < endServer {
		return nil
	}
	return siteTier(code-endServer, local, master)
}

func resolveTiers(local, master *topology.DataCenter) *siteTiers {
	t := new(siteTiers)
	t.resolve(local, master)
	return t
}

// resolve fills the table for the pair (local, master).
func (t *siteTiers) resolve(local, master *topology.DataCenter) {
	for slot := range t {
		t[slot] = siteTier(uint8(slot), local, master)
	}
}

func noTier(slot uint8, master *topology.DataCenter) error {
	return fmt.Errorf("cascade: DC %s has no tier %q", master.Name, slotRoles[slot/2].tierName())
}
