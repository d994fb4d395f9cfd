package simtime

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNewClockPanicsOnNonPositiveStep(t *testing.T) {
	for _, step := range []Seconds{0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%v) did not panic", step)
				}
			}()
			NewClock(step)
		}()
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(0.01)
	if c.Now() != 0 {
		t.Fatalf("initial tick = %d, want 0", c.Now())
	}
	for i := 1; i <= 5; i++ {
		if got := c.Advance(); got != Tick(i) {
			t.Fatalf("Advance() = %d, want %d", got, i)
		}
	}
	if got := c.NowSeconds(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("NowSeconds() = %v, want 0.05", got)
	}
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("after Reset Now() = %d, want 0", c.Now())
	}
}

func TestTicksInRoundsUp(t *testing.T) {
	c := NewClock(0.01)
	cases := []struct {
		d    Seconds
		want Tick
	}{
		{0, 0},
		{-1, 0},
		{0.001, 1},
		{0.01, 1},
		{0.011, 2},
		{1.0, 100},
	}
	for _, tc := range cases {
		if got := c.TicksIn(tc.d); got != tc.want {
			t.Errorf("TicksIn(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestTicksInTable pins TicksIn's rounding across the edge cases the
// event-horizon loop depends on: exact multiples, sub-step durations,
// zero/negative inputs and float-epsilon boundaries.
func TestTicksInTable(t *testing.T) {
	c := NewClock(0.05)
	cases := []struct {
		name string
		d    Seconds
		want Tick
	}{
		{"zero", 0, 0},
		{"negative", -3, 0},
		{"sub-step", 0.01, 1},
		{"exact-one-step", 0.05, 1},
		{"exact-multiple", 0.25, 5},
		{"just-over-multiple", 0.25 + 1e-9, 6},
		{"just-under-multiple", 0.25 - 1e-9, 5},
		{"large-exact", 3600, 72000},
		{"epsilon", 1e-12, 1},
	}
	for _, tc := range cases {
		if got := c.TicksIn(tc.d); got != tc.want {
			t.Errorf("%s: TicksIn(%v) = %d, want %d", tc.name, tc.d, got, tc.want)
		}
	}
}

func TestAdvanceBy(t *testing.T) {
	c := NewClock(0.05)
	if got := c.AdvanceBy(1); got != 1 {
		t.Fatalf("AdvanceBy(1) = %d, want 1", got)
	}
	if got := c.AdvanceBy(1199); got != 1200 {
		t.Fatalf("AdvanceBy(1199) = %d, want 1200", got)
	}
	if got := c.NowSeconds(); got != 60 {
		t.Errorf("NowSeconds() after jump = %v, want 60", got)
	}
	// A jump must land on exactly the tick arithmetic Advance produces.
	a, b := NewClock(0.05), NewClock(0.05)
	a.AdvanceBy(7)
	for i := 0; i < 7; i++ {
		b.Advance()
	}
	if a.Now() != b.Now() || a.NowSeconds() != b.NowSeconds() {
		t.Errorf("AdvanceBy(7) = (%d, %v), Advance x7 = (%d, %v)",
			a.Now(), a.NowSeconds(), b.Now(), b.NowSeconds())
	}
	for _, n := range []Tick{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AdvanceBy(%d) did not panic", n)
				}
			}()
			c.AdvanceBy(n)
		}()
	}
}

// TestWholeTicksBefore pins the strict-inequality contract of the jump
// sizing primitive: the returned k whole ticks always elapse in strictly
// less than d seconds, and k+1 would not.
func TestWholeTicksBefore(t *testing.T) {
	c := NewClock(0.05)
	cases := []struct {
		name string
		d    Seconds
		want Tick
	}{
		{"zero", 0, 0},
		{"negative", -1, 0},
		{"sub-step", 0.01, 0},
		{"exact-one-step", 0.05, 0},
		{"between-steps", 0.07, 1},
		{"exact-multiple-excluded", 0.25, 4},
		{"just-over-multiple", 0.25 + 1e-9, 5},
		{"just-under-multiple", 0.25 - 1e-9, 4},
		{"one-hour", 3600, 71999},
		{"infinite", math.Inf(1), 1 << 62},
		{"huge-finite-saturates", 1e300, 1 << 62},
	}
	for _, tc := range cases {
		if got := c.WholeTicksBefore(tc.d); got != tc.want {
			t.Errorf("%s: WholeTicksBefore(%v) = %d, want %d", tc.name, tc.d, got, tc.want)
		}
	}
}

// Property: WholeTicksBefore satisfies k*step < d <= (k+1)*step in the
// exact float arithmetic the clock itself uses.
func TestWholeTicksBeforeStrict(t *testing.T) {
	c := NewClock(0.005)
	f := func(us uint32) bool {
		d := Seconds(us) / 1e6
		if d <= c.Step() {
			return c.WholeTicksBefore(d) == 0
		}
		k := c.WholeTicksBefore(d)
		return c.SecondsAt(k) < d && c.SecondsAt(k+1) >= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTickAtFloors(t *testing.T) {
	c := NewClock(0.5)
	if got := c.TickAt(1.2); got != 2 {
		t.Errorf("TickAt(1.2) = %d, want 2", got)
	}
	if got := c.TickAt(-3); got != 0 {
		t.Errorf("TickAt(-3) = %d, want 0", got)
	}
}

func TestHourOfDay(t *testing.T) {
	cases := []struct {
		s    Seconds
		want int
	}{
		{0, 0},
		{3599, 0},
		{3600, 1},
		{13 * 3600, 13},
		{24 * 3600, 0},
		{25 * 3600, 1},
	}
	for _, tc := range cases {
		if got := HourOfDay(tc.s); got != tc.want {
			t.Errorf("HourOfDay(%v) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestFormatHMS(t *testing.T) {
	if got := FormatHMS(3723); got != "1:02:03" {
		t.Errorf("FormatHMS(3723) = %q, want 1:02:03", got)
	}
}

// Property: TicksIn always covers the duration, with less than one extra step.
func TestTicksInCoversDuration(t *testing.T) {
	c := NewClock(0.01)
	f := func(ms uint16) bool {
		d := Seconds(ms) / 1000
		ticks := c.TicksIn(d)
		covered := c.SecondsAt(ticks)
		return covered >= d-1e-9 && covered < d+c.Step()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SecondsAt and TickAt are inverse up to flooring.
// The fixed cases are the first ticks an absolute slack on the quotient
// fails to map back: 72.8 simulated hours into a 10 ms run, 9.1 h into a
// 1 ms one.
func TestTickSecondsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		step Seconds
		tick Tick
	}{{0.01, 26214404}, {0.001, 32768005}} {
		c := NewClock(tc.step)
		if got := c.TickAt(c.SecondsAt(tc.tick)); got != tc.tick {
			t.Errorf("step %v: TickAt(SecondsAt(%d)) = %d", tc.step, tc.tick, got)
		}
	}
	c := NewClock(0.1)
	f := func(n uint32) bool {
		tk := Tick(n)
		return c.TickAt(c.SecondsAt(tk)) == tk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

// Advance moves the clock forward one tick and returns the new tick.
func (c *Clock) Advance() Tick {
	c.now++
	return c.now
}

// Reset rewinds the clock to tick zero.
func (c *Clock) Reset() { c.now = 0 }

// HourOfDay returns the hour-of-day (0-23, GMT in the paper's scenarios) of
// the simulated instant s, for workloads defined as hourly curves.
func HourOfDay(s Seconds) int {
	const day = 24 * 3600
	sec := int64(s) % day
	if sec < 0 {
		sec += day
	}
	return int(sec / 3600)
}

// FormatHMS renders a simulated duration as H:MM:SS for reports.
func FormatHMS(s Seconds) string {
	d := time.Duration(s * float64(time.Second))
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	sec := int(d.Seconds()) % 60
	return fmt.Sprintf("%d:%02d:%02d", h, m, sec)
}
