package core

import "repro/internal/simtime"

// neverTick is the calendar key of an entry with nothing scheduled (+Inf
// horizons, dormant sources). It sorts after every reachable tick, so such
// entries never bound a jump, while staying in the structure so membership
// checks remain O(1).
const neverTick = simtime.Tick(1<<63 - 1)

// calEntry is one event-calendar entry: the absolute tick at which its
// agent may next act.
type calEntry struct {
	key simtime.Tick
	id  AgentID
}

// calendar is an indexed binary min-heap of agent due ticks — the
// pending-event set of the simulation. Position indexing by AgentID makes
// update and removal O(log n) without search, so the time loop can rekey
// exactly the agents whose state changed (the dirty set) and read the
// earliest event in O(1). Ties break on AgentID so the heap layout is
// deterministic; layout never affects results (only jump sizes derive from
// it, and any valid jump is equivalence-safe), determinism just keeps runs
// reproducible to inspect.
type calendar struct {
	entries []calEntry
	pos     []int32 // AgentID -> heap index, -1 when absent
}

// grow extends the position index to cover n agents.
func (c *calendar) grow(n int) {
	for len(c.pos) < n {
		c.pos = append(c.pos, -1)
	}
}

// len reports the number of scheduled entries.
func (c *calendar) len() int { return len(c.entries) }

// contains reports whether the agent has an entry.
func (c *calendar) contains(id AgentID) bool { return c.pos[id] >= 0 }

// minKey returns the earliest due tick, or neverTick when empty.
func (c *calendar) minKey() simtime.Tick {
	if len(c.entries) == 0 {
		return neverTick
	}
	return c.entries[0].key
}

// set inserts or updates the agent's entry to the given due tick.
func (c *calendar) set(id AgentID, key simtime.Tick) {
	if i := c.pos[id]; i >= 0 {
		old := c.entries[i].key
		c.entries[i].key = key
		if key < old {
			c.up(int(i))
		} else if key > old {
			c.down(int(i))
		}
		return
	}
	c.entries = append(c.entries, calEntry{key: key, id: id})
	c.pos[id] = int32(len(c.entries) - 1)
	c.up(len(c.entries) - 1)
}

// remove drops the agent's entry if present.
func (c *calendar) remove(id AgentID) {
	i := c.pos[id]
	if i < 0 {
		return
	}
	last := len(c.entries) - 1
	c.swap(int(i), last)
	c.entries = c.entries[:last]
	c.pos[id] = -1
	if int(i) < last {
		c.down(int(i))
		c.up(int(i))
	}
}

// popMin removes and returns the head agent; callers must check len first.
func (c *calendar) popMin() AgentID {
	id := c.entries[0].id
	c.remove(id)
	return id
}

func (c *calendar) less(i, j int) bool {
	if c.entries[i].key != c.entries[j].key {
		return c.entries[i].key < c.entries[j].key
	}
	return c.entries[i].id < c.entries[j].id
}

func (c *calendar) swap(i, j int) {
	c.entries[i], c.entries[j] = c.entries[j], c.entries[i]
	c.pos[c.entries[i].id] = int32(i)
	c.pos[c.entries[j].id] = int32(j)
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
