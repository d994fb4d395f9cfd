package names

import (
	"strconv"
	"testing"
)

// TestSlabCutsStableNames: names cut before the buffer grows keep their
// bytes after it grows, and a pre-sized batch costs one allocation.
func TestSlabCutsStableNames(t *testing.T) {
	var s Slab
	var got []string
	for i := range 100 {
		got = append(got, s.Str("cpu:NA:app:").Int(i).Cut())
	}
	for i, name := range got {
		if want := "cpu:NA:app:" + strconv.Itoa(i); name != want {
			t.Fatalf("name %d = %q, want %q", i, name, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var s Slab
		s.Grow(64 * (len("nic:") + 2))
		for i := range 64 {
			s.Str("nic:").Int(i).Cut()
		}
	}); allocs != 1 {
		t.Errorf("a pre-sized batch of 64 names costs %v allocations, want 1", allocs)
	}
}

func TestIntLen(t *testing.T) {
	for _, i := range []int{0, 7, 9, 10, 99, 100, 12345, -1, -10, -99999} {
		if got, want := IntLen(i), len(strconv.Itoa(i)); got != want {
			t.Errorf("IntLen(%d) = %d, want %d", i, got, want)
		}
	}
}
