package topology

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
)

// TestSpecValidationRejectsNaNAndInf breaks one number of a valid spec per
// row. NaN fails every comparison, so a check written as "reject if x <= 0"
// lets it through; ±Inf passes a sign check. Build must return an error for
// each row, not panic and not build.
func TestSpecValidationRejectsNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if err := twoDCSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	server := func(s *InfraSpec) *ServerSpec { return &s.DCs[0].Tiers[0].Server }
	local := func(s *InfraSpec) *hardware.LinkSpec { return &s.DCs[0].Tiers[0].LocalLink }
	wan := func(s *InfraSpec) *hardware.LinkSpec { return &s.WAN[0].Link }
	client := func(s *InfraSpec, edit func(*ClientSpec)) {
		c := s.Clients["EU"]
		edit(&c)
		s.Clients["EU"] = c
	}
	for _, row := range []struct {
		name string
		edit func(*InfraSpec)
	}{
		{"CPU GHz NaN", func(s *InfraSpec) { server(s).CPU.GHz = nan }},
		{"CPU GHz +Inf", func(s *InfraSpec) { server(s).CPU.GHz = inf }},
		{"CPU HTFactor NaN", func(s *InfraSpec) { server(s).CPU.HTFactor = nan }},
		{"CPU HTFactor +Inf", func(s *InfraSpec) { server(s).CPU.HTFactor = inf }},
		{"CPU HTFactor -Inf", func(s *InfraSpec) { server(s).CPU.HTFactor = -inf }},
		{"server memory NaN", func(s *InfraSpec) { server(s).MemGB = nan }},
		{"server memory +Inf", func(s *InfraSpec) { server(s).MemGB = inf }},
		{"server NIC NaN", func(s *InfraSpec) { server(s).NICGbps = nan }},
		{"server NIC +Inf", func(s *InfraSpec) { server(s).NICGbps = inf }},
		{"cache hit rate NaN", func(s *InfraSpec) { server(s).CacheHitRate = nan }},
		{"cache hit rate -Inf", func(s *InfraSpec) { server(s).CacheHitRate = -inf }},
		{"local link Gbps NaN", func(s *InfraSpec) { local(s).Gbps = nan }},
		{"local link Gbps +Inf", func(s *InfraSpec) { local(s).Gbps = inf }},
		{"local link latency NaN", func(s *InfraSpec) { local(s).LatencyMS = nan }},
		{"local link latency +Inf", func(s *InfraSpec) { local(s).LatencyMS = inf }},
		{"local link allocation NaN", func(s *InfraSpec) { local(s).Allocated = nan }},
		{"local link allocation -Inf", func(s *InfraSpec) { local(s).Allocated = -inf }},
		{"SAN link Gbps NaN", func(s *InfraSpec) { s.DCs[0].Tiers[1].SANLink.Gbps = nan }},
		{"SAN link latency +Inf", func(s *InfraSpec) { s.DCs[0].Tiers[1].SANLink.LatencyMS = inf }},
		{"switch Gbps NaN", func(s *InfraSpec) { s.DCs[1].SwitchGbps = nan }},
		{"switch Gbps +Inf", func(s *InfraSpec) { s.DCs[1].SwitchGbps = inf }},
		{"client link Gbps NaN", func(s *InfraSpec) { s.DCs[1].ClientLink.Gbps = nan }},
		{"client link latency NaN", func(s *InfraSpec) { s.DCs[1].ClientLink.LatencyMS = nan }},
		{"WAN Gbps NaN", func(s *InfraSpec) { wan(s).Gbps = nan }},
		{"WAN Gbps +Inf", func(s *InfraSpec) { wan(s).Gbps = inf }},
		{"WAN latency NaN", func(s *InfraSpec) { wan(s).LatencyMS = nan }},
		{"WAN allocation NaN", func(s *InfraSpec) { wan(s).Allocated = nan }},
		{"client NIC NaN", func(s *InfraSpec) { client(s, func(c *ClientSpec) { c.NICGbps = nan }) }},
		{"client GHz +Inf", func(s *InfraSpec) { client(s, func(c *ClientSpec) { c.GHz = inf }) }},
		{"client disk NaN", func(s *InfraSpec) { client(s, func(c *ClientSpec) { c.DiskMBs = nan }) }},
		{"client disk +Inf", func(s *InfraSpec) { client(s, func(c *ClientSpec) { c.DiskMBs = inf }) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := twoDCSpec()
			row.edit(&spec)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Build panicked: %v", p)
				}
			}()
			if _, err := Build(core.NewSimulation(core.Config{}), spec); err == nil {
				t.Fatal("invalid spec built")
			}
		})
	}
}

// fullSpec is twoDCSpec with every field of every struct set, including the
// ones the default path leaves zero.
func fullSpec() InfraSpec {
	s := twoDCSpec()
	for i := range s.DCs {
		dc := &s.DCs[i]
		dc.ClientLink.MaxConn, dc.ClientLink.Allocated = 64, 0.5
		for j := range dc.Tiers {
			tier := &dc.Tiers[j]
			tier.Server.CPU.HTFactor = 1.25
			tier.Server.CacheHitRate = 0.3
			tier.Server.RAID = &hardware.RAIDSpec{Disks: 3, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 90, HitRate: 0.2}, CtrlGbps: 6, HitRate: 0.1}
			tier.LocalLink.MaxConn, tier.LocalLink.Allocated = 32, 0.75
			tier.SAN = &hardware.SANSpec{Disks: 5, Disk: hardware.DiskSpec{CtrlGbps: 2, MBps: 80, HitRate: 0.4},
				FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 2, HitRate: 0.05}
			tier.SANLink = &hardware.LinkSpec{Gbps: 4, LatencyMS: 0.5, MaxConn: 16, Allocated: 0.9}
		}
	}
	s.WAN[0].Link.MaxConn, s.WAN[0].Link.Allocated = 128, 0.2
	s.WAN[0].Backup = true
	return s
}

// requireAllSet fails on any zero field reachable from v, so fullSpec keeps
// covering every field the spec grows.
func requireAllSet(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s is nil", path)
		}
		requireAllSet(t, v.Elem(), "(*"+path+")")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireAllSet(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			t.Fatalf("%s is empty", path)
		}
		if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				requireAllSet(t, v.Index(i), path+"[i]")
			}
		} else {
			for it := v.MapRange(); it.Next(); {
				requireAllSet(t, it.Value(), path+"["+it.Key().String()+"]")
			}
		}
	default:
		if v.IsZero() {
			t.Fatalf("%s is zero", path)
		}
	}
}

// jsonRoundTrip is the copy Clone replaced: through the spec's JSON form.
func jsonRoundTrip(t *testing.T, s InfraSpec) InfraSpec {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out InfraSpec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// Clone is the JSON round trip, typed: equal to it on a spec with every
// field set and on one with nil and empty slices and maps, and sharing
// nothing with the original — an edit of any slice, map or pointee of the
// clone leaves the original as it was.
func TestInfraSpecCloneIsDeep(t *testing.T) {
	orig := fullSpec()
	requireAllSet(t, reflect.ValueOf(orig), "InfraSpec")
	if c := orig.Clone(); !reflect.DeepEqual(c, jsonRoundTrip(t, orig)) {
		t.Fatalf("clone %+v differs from the JSON round trip", c)
	}
	sparse := InfraSpec{DCs: []DCSpec{{Name: "A", Tiers: []TierSpec{}}, {Name: "B"}}, Clients: map[string]ClientSpec{}}
	if c := sparse.Clone(); !reflect.DeepEqual(c, jsonRoundTrip(t, sparse)) {
		t.Fatalf("clone %+v differs from the JSON round trip of a spec with nil and empty parts", c)
	}
	want := jsonRoundTrip(t, orig)
	for _, edit := range []struct {
		what string
		fn   func(*InfraSpec)
	}{
		{"DCs", func(c *InfraSpec) { c.DCs[0].Name = "edited" }},
		{"Tiers", func(c *InfraSpec) { c.DCs[0].Tiers[1].Servers = 99 }},
		{"RAID", func(c *InfraSpec) { c.DCs[1].Tiers[0].Server.RAID.Disks = 99 }},
		{"SAN", func(c *InfraSpec) { c.DCs[0].Tiers[1].SAN.Disk.MBps = 99 }},
		{"SANLink", func(c *InfraSpec) { c.DCs[0].Tiers[0].SANLink.Gbps = 99 }},
		{"WAN", func(c *InfraSpec) { c.WAN[0].Link.Gbps = 99 }},
		{"Clients", func(c *InfraSpec) { c.Clients["NA"] = ClientSpec{Slots: 99}; delete(c.Clients, "EU") }},
	} {
		c := orig.Clone()
		edit.fn(&c)
		if !reflect.DeepEqual(orig, want) {
			t.Fatalf("editing the clone's %s changed the original", edit.what)
		}
	}
}
