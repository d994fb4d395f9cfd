package hardware

import "repro/internal/queueing"

// Parts holds what a batch of CPUs, RAIDs and SANs repeat — the FCFS
// queues of CPU sockets, store stages and drive lanes, the in-service arrays
// of multi-core sockets and the drive arrays' miss buffers — as one slab per
// kind, which each component set up by InitFrom carves its share of in turn.
// A platform counts the parts of all its components (Count, CountSAN) and
// makes them (Make) before it sets up the first, so they cost three
// allocations in all, not six per server; Init is the batch of one. Every
// piece is capped at its length, so no component can append into its
// neighbour's. A carve the slabs do not cover makes its piece on its own.
type Parts struct {
	queues slab[queueing.FCFS]
	slots  slab[*queueing.Task]
	misses slab[*forkSlab]
	need   partCount // what Count and CountSAN have counted for the next Make
}

// partCount is a number of parts of each kind.
type partCount struct{ queues, slots, misses int }

// missRoom is the room a drive array's miss buffer starts with: the stripes
// one lane takes from the controller caches in one tick before the buffer
// grows.
const missRoom = 8

// Count adds the parts of n CPUs of spec cpu and n RAIDs of spec raid to
// the next Make; a nil spec counts none of that kind. Specs are validated by
// the components' InitFrom, before they carve anything, not here.
func (p *Parts) Count(n int, cpu *CPUSpec, raid *RAIDSpec) {
	if cpu != nil && cpu.Sockets > 0 {
		p.need.queues += n * cpu.Sockets
		if cpu.Cores > 1 {
			p.need.slots += n * cpu.Sockets * cpu.Cores
		}
	}
	if raid != nil && raid.Disks > 0 {
		p.countStore(n, 1, raid.Disks, raid.Disk)
	}
}

// CountSAN adds the parts of one SAN of spec to the next Make.
func (p *Parts) CountSAN(spec SANSpec) {
	if spec.Disks > 0 {
		p.countStore(1, 3, spec.Disks, spec.Disk)
	}
}

// countStore counts n stores of the given stage and disk counts.
func (p *Parts) countStore(n, stages, disks int, disk DiskSpec) {
	p.need.queues += n * (stages + lanes(disks, disk))
	p.need.misses += n * missRoom
}

// Make replaces the slabs with fresh ones holding what was counted since
// the last Make, and starts the next count from zero.
func (p *Parts) Make() {
	p.queues.alloc(p.need.queues)
	p.slots.alloc(p.need.slots)
	p.misses.alloc(p.need.misses)
	p.need = partCount{}
}

// Reserve makes the slabs for the parts of n CPUs of spec cpu and n RAIDs
// of spec raid: Count, then Make.
func (p *Parts) Reserve(n int, cpu *CPUSpec, raid *RAIDSpec) {
	p.Count(n, cpu, raid)
	p.Make()
}

// lanes returns the drive lanes of an array of n disks: one per drive when
// each stripe draws its disk-cache hit, else one standing for all of them
// (diskArray).
func lanes(n int, disk DiskSpec) int {
	if disk.HitRate != 0 && disk.HitRate != 1 {
		return n
	}
	return 1
}

// slab hands out consecutive pieces of one backing array.
type slab[T any] []T

// alloc replaces the slab with a fresh one of n elements (none for n <= 0).
func (s *slab[T]) alloc(n int) {
	*s = nil
	if n > 0 {
		*s = make([]T, n)
	}
}

// take cuts the next n elements off the slab, capped at n; a slab short of
// n makes the piece on its own.
func (s *slab[T]) take(n int) []T {
	if len(*s) < n {
		return make([]T, n)
	}
	v := (*s)[:n:n]
	*s = (*s)[n:]
	return v
}
