package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/simtime"
)

// heapCalendar is the calendar this package shipped until the timing wheel
// joined it as a near tier, kept verbatim (type renamed, nothing else) as the
// oracle of FuzzCalendarMatchesHeap: an indexed binary min-heap of agent due
// ticks, ties broken by AgentID.
type heapCalendar struct {
	entries []calEntry
	pos     []int32 // AgentID -> heap index, -1 when absent
}

// grow extends the position index to cover n agents.
func (c *heapCalendar) grow(n int) {
	for len(c.pos) < n {
		c.pos = append(c.pos, -1)
	}
}

// len reports the number of scheduled entries.
func (c *heapCalendar) len() int { return len(c.entries) }

// contains reports whether the agent has an entry.
func (c *heapCalendar) contains(id AgentID) bool { return c.pos[id] >= 0 }

// minKey returns the earliest due tick, or neverTick when empty.
func (c *heapCalendar) minKey() simtime.Tick {
	if len(c.entries) == 0 {
		return neverTick
	}
	return c.entries[0].key
}

// set inserts or updates the agent's entry to the given due tick.
func (c *heapCalendar) set(id AgentID, key simtime.Tick) {
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
func (c *heapCalendar) remove(id AgentID) {
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
func (c *heapCalendar) popMin() AgentID {
	id := c.entries[0].id
	c.remove(id)
	return id
}

func (c *heapCalendar) less(i, j int) bool {
	if c.entries[i].key != c.entries[j].key {
		return c.entries[i].key < c.entries[j].key
	}
	return c.entries[i].id < c.entries[j].id
}

func (c *heapCalendar) swap(i, j int) {
	c.entries[i], c.entries[j] = c.entries[j], c.entries[i]
	c.pos[c.entries[i].id] = int32(i)
	c.pos[c.entries[j].id] = int32(j)
}

func (c *heapCalendar) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *heapCalendar) down(i int) {
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

// popMin removes and returns an agent with the earliest key; callers must
// check len first. The window loop pops a landing's due entries with popDue;
// the tests pop one at a time to compare orders with the oracle.
func (c *calendar) popMin() AgentID {
	k := c.minKey()
	if c.wlen > 0 && c.wmin == k {
		id := AgentID(c.head[k&wheelMask] - 1)
		c.unlink(id)
		return id
	}
	id := c.entries[0].id
	c.remove(id)
	return id
}

// check verifies the calendar's structure against want, every entry's true
// due tick: each bucket list is well linked and holds exactly the agents
// whose slot names that bucket, and only keys in [cursor, cursor+wheelSpan)
// that map to it; occupancy bits, summary word, wheel count and the slot
// table agree with the lists; the cached minimum, when known, is the true
// wheel minimum; and the heap tier is a valid min-heap whose positions and
// keys match.
func (c *calendar) check(want func(AgentID) simtime.Tick) error {
	n, trueMin := 0, neverTick
	for b := range c.head {
		occupied := c.occ[b>>6]&(1<<(b&63)) != 0
		if (c.head[b] != 0) != occupied {
			return fmt.Errorf("bucket %d: head %d, occupancy bit %v", b, c.head[b], occupied)
		}
		prev := int32(0)
		for at, steps := c.head[b], 0; at != 0; at, steps = c.slot[at-1].next, steps+1 {
			if steps > len(c.slot) {
				return fmt.Errorf("bucket %d: list does not end", b)
			}
			id := AgentID(at - 1)
			s := c.slot[id]
			if s.at != -int32(b)-1 || s.prev != prev {
				return fmt.Errorf("bucket %d: agent %d has slot %+v, want at %d prev %d", b, id, s, -b-1, prev)
			}
			k := want(id)
			if k < c.cursor || k-c.cursor >= wheelSpan || int(k&wheelMask) != b {
				return fmt.Errorf("bucket %d: agent %d due at %d, outside the wheel's range from %d or in another bucket", b, id, k, c.cursor)
			}
			trueMin = min(trueMin, k)
			prev = at
			n++
		}
	}
	for w, word := range c.occ {
		if (word != 0) != (c.summary&(1<<w) != 0) {
			return fmt.Errorf("occupancy word %d is %#x, summary %#x", w, word, c.summary)
		}
	}
	if c.summary>>wheelWords != 0 {
		return fmt.Errorf("summary %#x has bits beyond %d words", c.summary, wheelWords)
	}
	if n != c.wlen {
		return fmt.Errorf("%d wheel entries linked, count says %d", n, c.wlen)
	}
	if c.wlen > 0 && c.wmin != wheelStale && c.wmin != trueMin {
		return fmt.Errorf("cached wheel minimum %d, true minimum %d", c.wmin, trueMin)
	}
	for i, e := range c.entries {
		if c.slot[e.id].at != int32(i+1) {
			return fmt.Errorf("heap entry %d (agent %d) has slot at %d", i, e.id, c.slot[e.id].at)
		}
		if parent := (i - 1) / 2; i > 0 && c.less(i, parent) {
			return fmt.Errorf("heap violated at %d (key %d) under parent %d (key %d)", i, e.key, parent, c.entries[parent].key)
		}
		if k := want(e.id); k != e.key {
			return fmt.Errorf("heap entry of agent %d keyed %d, due at %d", e.id, e.key, k)
		}
	}
	wheel, heap := 0, 0
	for _, s := range c.slot {
		if s.at < 0 {
			wheel++
		} else if s.at > 0 {
			heap++
		}
	}
	if wheel != c.wlen || heap != len(c.entries) {
		return fmt.Errorf("slot table places %d agents on the wheel and %d in the heap, the tiers hold %d and %d",
			wheel, heap, c.wlen, len(c.entries))
	}
	return nil
}

// calendarFuzzSeeds seed FuzzCalendarMatchesHeap's corpus.
var calendarFuzzSeeds = []uint64{1, 2, 3, 7, 42, 255, 1024, 65537}

// FuzzCalendarMatchesHeap is the differential fuzzer of the two-tier
// calendar against the heap used alone (heapCalendar). The bytes drive
// random grow, set, remove, popMin and key calls and landings — pop
// everything due by a tick no later than the head, by popMin calls or one
// popDue, then advance the cursor to it, as the window loop does; or popDue
// a tick past the head, several buckets and heap entries at once — over
// keys near the cursor, at cursor+wheelSpan-1 and cursor+wheelSpan, beyond
// the span, below the cursor, neverTick and re-sets to the current key,
// with cursors wrapping the wheel and steps longer than the span. After
// every operation both must agree on minKey, len, membership and every
// agent's key, members must list exactly the heap's agents in ascending ID
// order, the two-tier calendar must pass its structural check, and each
// landing must pop the same set of agents.
// As a plain test it runs the seed corpus; `go test -fuzz
// FuzzCalendarMatchesHeap ./internal/core` explores.
func FuzzCalendarMatchesHeap(f *testing.F) {
	for _, seed := range calendarFuzzSeeds {
		f.Add(binary.LittleEndian.AppendUint64(nil, seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := calendarDiff(data, 600); err != nil {
			t.Fatal(err)
		}
	})
}

// calendarDiff runs nops operations drawn from data on both calendars and
// returns the first disagreement.
func calendarDiff(data []byte, nops int) error {
	in := newFuzzIn(data)
	var c calendar
	var o heapCalendar
	n := 1 + in.intn(48)
	c.grow(n)
	o.grow(n)
	c.cursor = simtime.Tick(in.intn(3 * wheelSpan))
	oracleKey := func(id AgentID) simtime.Tick { return o.entries[o.pos[id]].key }
	for i := 0; i < nops; i++ {
		var op string
		cur := c.cursor
		switch in.intn(13) {
		case 0, 1, 2, 3, 4:
			id := AgentID(in.intn(n))
			var key simtime.Tick
			switch in.intn(9) {
			case 0:
				key, op = cur+1+simtime.Tick(in.intn(8)), "set near"
			case 1:
				key, op = cur+simtime.Tick(in.intn(wheelSpan)), "set on the wheel"
			case 2:
				key, op = cur+wheelSpan-1, "set at the wheel's last tick"
			case 3:
				key, op = cur+wheelSpan, "set one past the wheel"
			case 4:
				key, op = cur+wheelSpan+simtime.Tick(in.intn(3*wheelSpan)), "set beyond the wheel"
			case 5:
				key, op = neverTick, "set never"
			case 6:
				key, op = cur+1+simtime.Tick(in.intn(64)), "set close"
				if o.contains(id) {
					key, op = oracleKey(id), "re-set the same key"
				}
			case 7:
				key, op = cur+1+simtime.Tick(in.intn(2)), "set next"
			default:
				key, op = cur-1-simtime.Tick(in.intn(8)), "set below the cursor"
				if key < 0 {
					key = cur
				}
			}
			c.set(id, key)
			o.set(id, key)
			op = fmt.Sprintf("%s (agent %d, key %d)", op, id, key)
		case 5, 6:
			id := AgentID(in.intn(n))
			c.remove(id)
			o.remove(id)
			op = fmt.Sprintf("remove %d", id)
		case 7:
			if o.len() == 0 {
				continue
			}
			k := c.minKey()
			id := c.popMin()
			op = fmt.Sprintf("popMin -> agent %d at %d", id, k)
			if !o.contains(id) || oracleKey(id) != k || o.minKey() != k {
				return fmt.Errorf("op %d: %s; the heap's head is %d", i, op, o.minKey())
			}
			o.remove(id)
		case 8, 9, 10:
			head := o.minKey()
			var landing simtime.Tick
			pastHead := false
			switch in.intn(5) {
			case 0:
				landing = head
			case 1:
				landing = cur + simtime.Tick(in.intn(16))
			case 2:
				landing = cur + wheelSpan + simtime.Tick(in.intn(4*wheelSpan))
			case 3:
				pastHead = true
			default:
				landing = cur
			}
			if pastHead {
				// popDue past the head: several buckets and heap entries at once.
				landing = max(cur, min(head, cur+5*wheelSpan)) + simtime.Tick(in.intn(3*wheelSpan))
			} else {
				if head == neverTick && landing == neverTick {
					landing = cur + simtime.Tick(in.intn(5*wheelSpan))
				}
				landing = max(cur, min(landing, head))
			}
			byPopDue := pastHead || in.intn(2) == 0
			var got, want []AgentID
			if byPopDue {
				got = c.popDue(landing, nil)
			} else {
				for c.minKey() <= landing {
					got = append(got, c.popMin())
				}
			}
			for o.minKey() <= landing {
				want = append(want, o.popMin())
			}
			slices.Sort(got)
			slices.Sort(want)
			op = fmt.Sprintf("land on %d from %d (head %d, popDue %v)", landing, cur, head, byPopDue)
			if !slices.Equal(got, want) {
				return fmt.Errorf("op %d: %s popped %v, the heap %v", i, op, got, want)
			}
			c.cursor = landing
		case 11:
			id := AgentID(in.intn(n + 4)) // past the slot table too
			want := neverTick
			if int(id) < n && o.contains(id) {
				want = oracleKey(id)
			}
			op = fmt.Sprintf("key(%d)", id)
			if got := c.key(id); got != want {
				return fmt.Errorf("op %d: %s = %d, the heap's %d", i, op, got, want)
			}
		default:
			n += 1 + in.intn(8)
			c.grow(n)
			o.grow(n)
			op = fmt.Sprintf("grow to %d", n)
		}
		if g, w := c.minKey(), o.minKey(); g != w {
			return fmt.Errorf("op %d: after %s: minKey %d, the heap's %d", i, op, g, w)
		}
		if g, w := c.len(), o.len(); g != w {
			return fmt.Errorf("op %d: after %s: len %d, the heap's %d", i, op, g, w)
		}
		for id := AgentID(0); int(id) < n; id++ {
			if g, w := c.contains(id), o.contains(id); g != w {
				return fmt.Errorf("op %d: after %s: contains(%d) %v, the heap's %v", i, op, id, g, w)
			}
			if c.contains(id) && c.key(id) != oracleKey(id) {
				return fmt.Errorf("op %d: after %s: agent %d keyed %d, in the heap %d", i, op, id, c.key(id), oracleKey(id))
			}
		}
		want := make([]AgentID, 0, o.len())
		for _, e := range o.entries {
			want = append(want, e.id)
		}
		slices.Sort(want)
		if got := c.members(nil); !slices.Equal(got, want) {
			return fmt.Errorf("op %d: after %s: members %v, the heap holds %v", i, op, got, want)
		}
		if err := c.check(oracleKey); err != nil {
			return fmt.Errorf("op %d: after %s: %v", i, op, err)
		}
	}
	return nil
}
