package core

import (
	"math/bits"
	"slices"

	"repro/internal/simtime"
)

// neverTick is the calendar key of an entry with nothing scheduled (+Inf
// horizons, dormant sources). It sorts after every reachable tick, so such
// entries never bound a jump, while staying in the structure so membership
// checks remain O(1).
const neverTick = simtime.Tick(1<<63 - 1)

// wheelSpan is the width of the calendar's near tier in ticks (2.56 s at the
// 10 ms step): a key in [cursor, cursor+wheelSpan) sits in the per-tick
// bucket key & wheelMask. A power of two of at most 64·64 buckets, so one
// summary word indexes the occupancy words.
const (
	wheelSpan  = 256
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// wheelStale marks the cached wheel minimum as unknown. It sorts below every
// tick, so an insert never overwrites it with a key that is not the minimum.
const wheelStale = simtime.Tick(-1)

// calEntry is one heap-tier entry: the absolute tick at which its agent may
// next act.
type calEntry struct {
	key simtime.Tick
	id  AgentID
}

// calSlot is an agent's place in the calendar. at is 0 when the agent has no
// entry, i+1 when it sits at heap index i, and -(b+1) when it sits in wheel
// bucket b. next and prev thread the bucket's list as agent ID + 1, 0 ending
// it; a prev of 0 marks the bucket's first entry. A wheel entry's key is not
// stored: it is the one tick of the wheel's range that maps to its bucket.
type calSlot struct{ next, prev, at int32 }

// calendar is the pending-event set of the simulation: one entry per active
// agent, keyed by an absolute tick no later than the one at which it may
// next act, so the time loop can rekey exactly the agents whose state
// changed and read the earliest event cheaply. It has two tiers:
//
//   - a timing wheel of per-tick buckets covering [cursor, cursor+wheelSpan),
//     holding the near keys — nearly all of them, since a key is a few to a
//     few hundred ticks ahead of the clock. Each bucket is an intrusive
//     doubly-linked list through the per-agent slot table, so insertion and
//     removal are O(1); an occupancy bitmap and a summary word find the
//     earliest non-empty bucket in two TrailingZeros64 calls, and that
//     minimum is cached until its bucket empties.
//   - an indexed binary min-heap holding every other key: beyond the span
//     (neverTick included) or, never in practice, below the cursor. Its
//     entries stay there when the cursor catches up with them; minKey reads
//     both heads.
//
// The cursor is the window's tick. It may only advance to a tick no later
// than the earliest wheel key, which the time loop guarantees: it moves the
// cursor to the landing once popDue has taken every entry due by it.
// Ties pop in no particular order; callers sort what they pop.
type calendar struct {
	cursor  simtime.Tick
	wmin    simtime.Tick // earliest wheel key, or wheelStale; meaningless while wlen is 0
	wlen    int
	summary uint64             // bit w set iff occ[w] != 0
	occ     [wheelWords]uint64 // bit b set iff bucket b is non-empty
	head    [wheelSpan]int32   // first agent of each bucket, as ID + 1
	entries []calEntry         // the heap tier
	slot    []calSlot          // AgentID -> place
}

// grow extends the slot table to cover n agents. The time loop calls it
// before each rekey and before keying an agent an arrival activates, so the
// table is sized once to the population the loop first sees and grows with
// the agent table after that.
func (c *calendar) grow(n int) {
	if n > len(c.slot) {
		c.slot = append(c.slot, make([]calSlot, n-len(c.slot))...)
	}
}

// reserve makes room in the slot table for n agents, so grow covers them
// without moving it.
func (c *calendar) reserve(n int) {
	c.slot = slices.Grow(c.slot, max(n-len(c.slot), 0))
}

// len reports the number of scheduled entries.
func (c *calendar) len() int { return c.wlen + len(c.entries) }

// contains reports whether the agent has an entry.
func (c *calendar) contains(id AgentID) bool {
	return int(id) < len(c.slot) && c.slot[id].at != 0
}

// members appends the agents that have an entry to dst, in ascending ID
// order.
func (c *calendar) members(dst []AgentID) []AgentID {
	for id, sl := range c.slot {
		if sl.at != 0 {
			dst = append(dst, AgentID(id))
		}
	}
	return dst
}

// minKey returns the earliest due tick, or neverTick when empty.
func (c *calendar) minKey() simtime.Tick {
	m := neverTick
	if c.wlen > 0 {
		if c.wmin == wheelStale {
			c.wmin = c.wheelMin()
		}
		m = c.wmin
	}
	if len(c.entries) > 0 && c.entries[0].key < m {
		m = c.entries[0].key
	}
	return m
}

// set inserts or updates the agent's entry to the given due tick.
func (c *calendar) set(id AgentID, key simtime.Tick) {
	at := c.slot[id].at
	if uint64(key-c.cursor) < wheelSpan {
		if at == -int32(key&wheelMask)-1 {
			return // already in the key's bucket
		}
		c.remove(id)
		c.link(id, key)
		return
	}
	if at > 0 {
		i := int(at - 1)
		old := c.entries[i].key
		c.entries[i].key = key
		if key < old {
			c.up(i)
		} else if key > old {
			c.down(i)
		}
		return
	}
	if at < 0 {
		c.unlink(id)
	}
	c.entries = append(c.entries, calEntry{key: key, id: id})
	c.slot[id].at = int32(len(c.entries))
	c.up(len(c.entries) - 1)
}

// remove drops the agent's entry if present.
func (c *calendar) remove(id AgentID) {
	if int(id) >= len(c.slot) {
		return
	}
	at := c.slot[id].at
	if at < 0 {
		c.unlink(id)
		return
	}
	if at == 0 {
		return
	}
	i, last := int(at-1), len(c.entries)-1
	c.swap(i, last)
	c.entries = c.entries[:last]
	c.slot[id].at = 0
	if i < last {
		c.down(i)
		c.up(i)
	}
}

// key returns the agent's due tick, or neverTick when it has no entry. A
// wheel entry's key is the one tick of [cursor, cursor+wheelSpan) that maps
// to its bucket.
func (c *calendar) key(id AgentID) simtime.Tick {
	if int(id) >= len(c.slot) {
		return neverTick
	}
	switch at := c.slot[id].at; {
	case at > 0:
		return c.entries[at-1].key
	case at < 0:
		b := simtime.Tick(-at - 1)
		return c.cursor + (b-c.cursor)&wheelMask
	}
	return neverTick
}

// popDue removes every entry due by at and appends its agent to dst, in no
// particular order. Each due wheel bucket — on the window loop, exactly one:
// the landing's — is unlinked as one list, its occupancy bit cleared once;
// then the heap tier's due entries are popped.
func (c *calendar) popDue(at simtime.Tick, dst []AgentID) []AgentID {
	for c.wlen > 0 {
		if c.wmin == wheelStale {
			c.wmin = c.wheelMin()
		}
		if c.wmin > at {
			break
		}
		dst = c.popBucket(c.wmin, dst)
	}
	for len(c.entries) > 0 && c.entries[0].key <= at {
		id := c.entries[0].id
		c.remove(id)
		dst = append(dst, id)
	}
	return dst
}

// popBucket empties the wheel bucket of key, appending its agents to dst.
func (c *calendar) popBucket(key simtime.Tick, dst []AgentID) []AgentID {
	b := int32(key & wheelMask)
	for at := c.head[b]; at != 0; {
		id := at - 1
		at = c.slot[id].next
		c.slot[id] = calSlot{}
		dst = append(dst, AgentID(id))
		c.wlen--
	}
	c.head[b] = 0
	w := b >> 6
	if c.occ[w] &^= 1 << (b & 63); c.occ[w] == 0 {
		c.summary &^= 1 << w
	}
	c.wmin = wheelStale
	return dst
}

// link pushes the agent onto the front of the bucket of key, which must lie
// in the wheel's range.
func (c *calendar) link(id AgentID, key simtime.Tick) {
	b := int32(key & wheelMask)
	first := c.head[b]
	c.slot[id] = calSlot{next: first, at: -b - 1}
	if first != 0 {
		c.slot[first-1].prev = int32(id) + 1
	} else {
		c.occ[b>>6] |= 1 << (b & 63)
		c.summary |= 1 << (b >> 6)
	}
	c.head[b] = int32(id) + 1
	if c.wlen == 0 || key < c.wmin {
		c.wmin = key
	}
	c.wlen++
}

// unlink takes a wheel entry out of its bucket, clearing the bucket's
// occupancy — and the cached minimum, if it lived there — when it empties.
func (c *calendar) unlink(id AgentID) {
	s := c.slot[id]
	b := -s.at - 1
	if s.prev != 0 {
		c.slot[s.prev-1].next = s.next
	} else {
		c.head[b] = s.next
	}
	if s.next != 0 {
		c.slot[s.next-1].prev = s.prev
	}
	if c.head[b] == 0 {
		w := b >> 6
		if c.occ[w] &^= 1 << (b & 63); c.occ[w] == 0 {
			c.summary &^= 1 << w
		}
		if c.wmin != wheelStale && int32(c.wmin&wheelMask) == b {
			c.wmin = wheelStale
		}
	}
	c.slot[id] = calSlot{}
	c.wlen--
}

// wheelMin returns the key of the first non-empty bucket at or after the
// cursor's, wrapping around the wheel; the wheel must not be empty.
func (c *calendar) wheelMin() simtime.Tick {
	p := int(c.cursor & wheelMask)
	w := p >> 6
	if m := c.occ[w] >> (p & 63); m != 0 {
		return c.cursor + simtime.Tick(bits.TrailingZeros64(m))
	}
	s := c.summary &^ (uint64(2)<<w - 1) // the words after the cursor's
	if s == 0 {
		s = c.summary // wrapped: what is left lies before the cursor's bucket
	}
	i := bits.TrailingZeros64(s)
	b := i<<6 | bits.TrailingZeros64(c.occ[i])
	return c.cursor + simtime.Tick((b-p)&wheelMask)
}

// The heap tier: an indexed binary min-heap over entries, ties broken by
// AgentID so its layout is deterministic, positions kept in the slot table.

func (c *calendar) less(i, j int) bool {
	if c.entries[i].key != c.entries[j].key {
		return c.entries[i].key < c.entries[j].key
	}
	return c.entries[i].id < c.entries[j].id
}

func (c *calendar) swap(i, j int) {
	c.entries[i], c.entries[j] = c.entries[j], c.entries[i]
	c.slot[c.entries[i].id].at = int32(i + 1)
	c.slot[c.entries[j].id].at = int32(j + 1)
}

func (c *calendar) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *calendar) down(i int) {
	n := len(c.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.less(l, smallest) {
			smallest = l
		}
		if r < n && c.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		c.swap(i, smallest)
		i = smallest
	}
}
