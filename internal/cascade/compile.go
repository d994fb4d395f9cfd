package cascade

import (
	"fmt"

	"repro/internal/topology"
)

// This file is the static half of cascade expansion: what can be decided
// about an operation before an instance of it exists. An Op compiles, once
// per launcher, into a program — one byte per message naming its two ends —
// and each (local, master) pair of data centers a launcher binds resolves,
// once, into the tiers behind the server roles (siteTiers). What stays a
// run-time decision, made per instance in Binding.endpoint and
// topology.AppendHop in the order messages expand: the client slot, the
// server each (role, site) pair picks, every memory-hit draw, and the WAN
// route of the moment. Programs hold indices, not stages.

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
	// width is the message count of the widest step.
	width int
}

// compile validates the operation and numbers every message's ends.
func compile(op Op) (*program, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	n := 0
	for _, step := range op.Steps {
		n += len(step)
	}
	p := &program{msgs: make([]uint8, 0, n)}
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

// oneShotStages sizes the stage buffer of an expander that serves a single
// operation (Instantiate without a Scratch; its plan slice gets width): the
// widest step at eight stages per message — NIC, link, switch, link, NIC and
// up to three processing stages — plus a WAN hop (link, far switch) each way
// of slack when the sites differ. An underestimate costs a buffer growth,
// nothing else. A launcher's recycled expanders are not presized: they grow
// to the launcher's widest operation during warm-up and stay there.
func (p *program) oneShotStages(b *Binding) int {
	if b.Local == b.Master {
		return 8 * p.width
	}
	return 12 * p.width
}

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
	var t siteTiers
	for slot := range t {
		t[slot] = siteTier(uint8(slot), local, master)
	}
	return &t
}

func noTier(slot uint8, master *topology.DataCenter) error {
	return fmt.Errorf("cascade: DC %s has no tier %q", master.Name, slotRoles[slot/2].tierName())
}
