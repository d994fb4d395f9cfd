// Package topology builds the holonic structure of the infrastructure
// (§3.3.2): low-level hardware agents are encapsulated into server and
// client holons, servers into tiers, tiers into data centers, and data
// centers into the global infrastructure connected by WAN links (Fig. 3-2).
// It also implements the router that expands a cascade message between two
// holons into the chain of hardware stages it traverses (Eqs. 3.2-3.5),
// with run-time load balancing across tier servers.
package topology

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/hardware"
)

// ServerSpec describes the hardware of one server holon.
type ServerSpec struct {
	CPU          hardware.CPUSpec
	MemGB        float64
	CacheHitRate float64 // probability a storage access is served from memory
	NICGbps      float64
	// RAID, when non-nil, gives the server local storage. Tiers whose
	// servers have no RAID must be backed by a tier SAN.
	RAID *hardware.RAIDSpec
}

// The spec checks state what is usable as one conjunction and reject
// everything else, so NaN — for which every comparison is false — and ±Inf
// are invalid wherever a number is.

func (s ServerSpec) validate() error {
	if !(s.MemGB > 0 && s.NICGbps > 0 && finite(s.MemGB, s.NICGbps)) {
		return fmt.Errorf("topology: invalid ServerSpec mem=%v nic=%v", s.MemGB, s.NICGbps)
	}
	if !(s.CacheHitRate >= 0 && s.CacheHitRate <= 1) {
		return fmt.Errorf("topology: invalid cache hit rate %v", s.CacheHitRate)
	}
	return s.CPU.Validate()
}

// finite reports whether no x is NaN or ±Inf.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TierSpec describes a tier holon: an array of identical servers
// (Fig. 3-2), optionally backed by a SAN reached through a dedicated link.
type TierSpec struct {
	// Name identifies the tier within its data center ("app", "db", "fs",
	// "idx").
	Name    string
	Servers int
	Server  ServerSpec
	// LocalLink connects each server to the data center switch.
	LocalLink hardware.LinkSpec
	// SAN, when non-nil, is shared storage for the tier.
	SAN *hardware.SANSpec
	// SANLink connects the tier to its SAN; required when SAN is set.
	SANLink *hardware.LinkSpec
}

func (t TierSpec) validate() error {
	if !(t.Name != "" && t.Servers > 0) {
		return fmt.Errorf("topology: invalid TierSpec name=%q servers=%d", t.Name, t.Servers)
	}
	if err := t.Server.validate(); err != nil {
		return fmt.Errorf("tier %s: %w", t.Name, err)
	}
	if err := t.LocalLink.Validate(); err != nil {
		return fmt.Errorf("topology: tier %s local link: %w", t.Name, err)
	}
	if t.SAN != nil && t.SANLink == nil {
		return fmt.Errorf("topology: tier %s has a SAN but no SAN link", t.Name)
	}
	if t.SANLink != nil {
		if err := t.SANLink.Validate(); err != nil {
			return fmt.Errorf("topology: tier %s SAN link: %w", t.Name, err)
		}
	}
	if t.SAN == nil && t.Server.RAID == nil {
		return fmt.Errorf("topology: tier %s has neither RAID nor SAN storage", t.Name)
	}
	return nil
}

// DCSpec describes a data center holon.
type DCSpec struct {
	Name       string
	SwitchGbps float64
	// ClientLink connects the local client population to the DC switch.
	ClientLink hardware.LinkSpec
	Tiers      []TierSpec
}

func (d DCSpec) validate() error {
	if !(d.Name != "" && d.SwitchGbps > 0 && finite(d.SwitchGbps)) {
		return fmt.Errorf("topology: invalid DCSpec name=%q switch=%v", d.Name, d.SwitchGbps)
	}
	if err := d.ClientLink.Validate(); err != nil {
		return fmt.Errorf("topology: DC %s client link: %w", d.Name, err)
	}
	seen := map[string]bool{}
	for _, t := range d.Tiers {
		if err := t.validate(); err != nil {
			return fmt.Errorf("DC %s: %w", d.Name, err)
		}
		if seen[t.Name] {
			return fmt.Errorf("topology: DC %s has duplicate tier %q", d.Name, t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// WANSpec describes one bidirectional WAN connection between two data
// centers; it is materialized as two directed link agents so utilization is
// reported per direction, as in Tables 6.1 and 7.3.
type WANSpec struct {
	From, To string
	Link     hardware.LinkSpec
	// Backup links carry no traffic unless a primary path fails
	// (L_EU->AFR and L_EU->AS1 in Fig. 6-4).
	Backup bool
}

// ClientSpec describes the hardware of client holons in a data center.
type ClientSpec struct {
	// Slots is the number of client holons to materialize — it bounds the
	// number of concurrently active clients at that location.
	Slots   int
	NICGbps float64
	GHz     float64 // client CPU frequency, for client-side processing time
	DiskMBs float64 // client local disk throughput
}

func (c ClientSpec) validate() error {
	if !(c.Slots > 0 && c.NICGbps > 0 && c.GHz > 0 && c.DiskMBs > 0 && finite(c.NICGbps, c.GHz, c.DiskMBs)) {
		return fmt.Errorf("topology: invalid ClientSpec %+v", c)
	}
	return nil
}

// InfraSpec describes the whole infrastructure.
type InfraSpec struct {
	DCs     []DCSpec
	WAN     []WANSpec
	Clients map[string]ClientSpec // per data center name
}

// Clone returns a deep copy of the spec: the copy shares no slice, map or
// pointee with s, so either can be edited without the other seeing it. Nil
// and empty slices and maps stay nil and empty.
func (s InfraSpec) Clone() InfraSpec {
	c := InfraSpec{DCs: slices.Clone(s.DCs), WAN: slices.Clone(s.WAN), Clients: maps.Clone(s.Clients)}
	for i := range c.DCs {
		tiers := slices.Clone(c.DCs[i].Tiers)
		for j := range tiers {
			t := &tiers[j]
			t.Server.RAID = clonePtr(t.Server.RAID)
			t.SAN = clonePtr(t.SAN)
			t.SANLink = clonePtr(t.SANLink)
		}
		c.DCs[i].Tiers = tiers
	}
	return c
}

func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// Validate checks the whole specification without building anything: every
// data center, tier, server, link and client population is usable, names
// are unique, and WAN ends and client keys name data centers of the spec.
// Build runs it, and so does the experiment gate, so a bad spec fails
// before a simulation exists.
func (s InfraSpec) Validate() error {
	if len(s.DCs) == 0 {
		return fmt.Errorf("topology: infrastructure needs at least one DC")
	}
	names := map[string]bool{}
	for _, d := range s.DCs {
		if err := d.validate(); err != nil {
			return err
		}
		if names[d.Name] {
			return fmt.Errorf("topology: duplicate DC %q", d.Name)
		}
		names[d.Name] = true
	}
	for _, w := range s.WAN {
		if !names[w.From] || !names[w.To] {
			return fmt.Errorf("topology: WAN %s->%s references unknown DC", w.From, w.To)
		}
		if w.From == w.To {
			return fmt.Errorf("topology: WAN self-loop at %s", w.From)
		}
		if err := w.Link.Validate(); err != nil {
			return fmt.Errorf("topology: WAN %s->%s: %w", w.From, w.To, err)
		}
	}
	// A passing spec is checked in map order, without a key list; a failing
	// one is checked again in sorted order, so a spec with several bad
	// entries always reports the same one.
	for dc, c := range s.Clients {
		if !names[dc] || c.validate() != nil {
			return s.clientsError(names)
		}
	}
	return nil
}

// clientsError returns the error of the first bad client population in
// sorted data-center order; names holds the spec's data centers.
func (s InfraSpec) clientsError(names map[string]bool) error {
	for _, dc := range slices.Sorted(maps.Keys(s.Clients)) {
		if !names[dc] {
			return &UnknownClientDCError{DC: dc}
		}
		if err := s.Clients[dc].validate(); err != nil {
			return err
		}
	}
	return nil
}

// UnknownClientDCError reports an InfraSpec.Clients key that names no data
// center of the spec.
type UnknownClientDCError struct{ DC string }

func (e *UnknownClientDCError) Error() string {
	return fmt.Sprintf("topology: clients reference unknown DC %q", e.DC)
}
