package hardware

import "repro/internal/queueing"

// Parts holds what a batch of identical CPUs and RAIDs repeat — the FCFS
// queues of CPU sockets, store stages and drive lanes, the in-service arrays
// of multi-core sockets and the drive arrays' miss buffers — as one slab per
// kind, which each component set up by InitFrom carves its share of in turn.
// A tier reserves the parts of all its servers before it sets up the first,
// so they cost three allocations per tier, not six per server; Init is the
// batch of one. Every piece is capped at its length, so no component can
// append into its neighbour's. A carve the reservation did not cover makes
// its piece on its own.
type Parts struct {
	queues slab[queueing.FCFS]
	slots  slab[*queueing.Task]
	misses slab[*forkSlab]
}

// missRoom is the room a drive array's miss buffer starts with: the stripes
// one lane takes from the controller caches in one tick before the buffer
// grows.
const missRoom = 8

// Reserve makes the slabs for the parts of n CPUs of spec cpu and n RAIDs of
// spec raid; a nil spec reserves none of that kind. Specs are validated by
// the components' InitFrom, before they carve anything, not here.
func (p *Parts) Reserve(n int, cpu *CPUSpec, raid *RAIDSpec) {
	var queues, slots, misses int
	if cpu != nil && cpu.Sockets > 0 {
		queues += cpu.Sockets
		if cpu.Cores > 1 {
			slots += cpu.Sockets * cpu.Cores
		}
	}
	if raid != nil && raid.Disks > 0 {
		queues += 1 + lanes(raid.Disks, raid.Disk)
		misses += missRoom
	}
	p.reserve(n*queues, n*slots, n*misses)
}

// reserveStore makes the slabs for one store of the given stage and disk
// counts (a SAN).
func (p *Parts) reserveStore(stages, disks int, disk DiskSpec) {
	p.reserve(stages+lanes(disks, disk), 0, missRoom)
}

func (p *Parts) reserve(queues, slots, misses int) {
	p.queues.alloc(queues)
	p.slots.alloc(slots)
	p.misses.alloc(misses)
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
