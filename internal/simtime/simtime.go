// Package simtime provides the discrete time base of the simulator.
//
// GDISim advances in fixed-size steps (ticks). All simulated durations are
// expressed in seconds as float64 and converted to whole ticks by the clock.
// The step size is configurable per scenario: validation runs (Chapter 5)
// use 10 ms so that operation service times spanning tens of milliseconds
// resolve cleanly, while day-long case studies (Chapters 6-7) use 100 ms.
package simtime

import (
	"fmt"
	"math"
)

// Tick is a discrete simulation step index. Tick 0 is the simulation start.
type Tick int64

// Seconds is a simulated duration or instant expressed in seconds.
type Seconds = float64

// Clock converts between ticks and simulated seconds and tracks the current
// simulation instant. The zero Clock is not usable; construct with NewClock.
type Clock struct {
	step Seconds // seconds per tick
	now  Tick
}

// NewClock returns a clock with the given step size in seconds.
// Step sizes must be positive and finite; NewClock panics otherwise because
// a non-positive, NaN or infinite step renders every conversion meaningless.
func NewClock(step Seconds) *Clock {
	if !(step > 0) || math.IsInf(step, 1) {
		panic(fmt.Sprintf("simtime: step %v is not positive and finite", step))
	}
	return &Clock{step: step}
}

// Step returns the configured step size in seconds.
func (c *Clock) Step() Seconds { return c.step }

// Now returns the current tick.
func (c *Clock) Now() Tick { return c.now }

// NowSeconds returns the current simulated time in seconds.
func (c *Clock) NowSeconds() Seconds { return Seconds(c.now) * c.step }

// AdvanceBy moves the clock forward n whole ticks in one jump — the
// fast-forward primitive of the event-horizon time loop — and returns the
// new tick. It panics on n < 1: a loop that advances by nothing (or
// backwards) is a scheduling bug, never a quiet no-op.
func (c *Clock) AdvanceBy(n Tick) Tick {
	if n < 1 {
		panic(fmt.Sprintf("simtime: AdvanceBy(%d); jumps must cover at least one tick", n))
	}
	c.now += n
	return c.now
}

// TicksIn returns the number of whole ticks covering d seconds, rounding up
// so that a strictly positive duration always occupies at least one tick.
func (c *Clock) TicksIn(d Seconds) Tick {
	if d <= 0 {
		return 0
	}
	t := Tick(d / c.step)
	if Seconds(t)*c.step < d {
		t++
	}
	return t
}

// WholeTicksBefore returns the largest k such that k whole ticks elapse in
// strictly less than d seconds (k*step < d), i.e. the number of ticks the
// clock can jump while still landing before the instant d seconds away.
// Non-positive and sub-step durations yield 0. The float division is
// corrected in both directions so exact multiples land on k = d/step - 1
// and near-boundary values resolve to the true strict inequality.
func (c *Clock) WholeTicksBefore(d Seconds) Tick {
	if d <= c.step {
		return 0
	}
	// Durations beyond any representable run (including +Inf) saturate:
	// converting them to Tick would be implementation-dependent. Callers
	// cap jumps with their own bounds well below this.
	if d/c.step >= 1<<62 {
		return 1 << 62
	}
	k := Tick(d / c.step)
	for k > 0 && Seconds(k)*c.step >= d {
		k--
	}
	for Seconds(k+1)*c.step < d {
		k++
	}
	return k
}

// SecondsAt returns the simulated time in seconds at tick t.
func (c *Clock) SecondsAt(t Tick) Seconds { return Seconds(t) * c.step }

// TickAt returns the tick containing the simulated instant s: the largest k
// with SecondsAt(k) <= s. The float division is corrected in both
// directions, as in WholeTicksBefore, so every instant SecondsAt produces
// maps back to its originating tick however far into the run it lies.
func (c *Clock) TickAt(s Seconds) Tick {
	if s <= 0 {
		return 0
	}
	if s/c.step >= 1<<62 {
		return 1 << 62
	}
	k := Tick(s / c.step)
	for k > 0 && Seconds(k)*c.step > s {
		k--
	}
	for Seconds(k+1)*c.step <= s {
		k++
	}
	return k
}
