package hardware

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
)

// Memory models the two effects of Fig. 3-5: caching — a cache hit bypasses
// the storage queues entirely — and occupancy — an amount of memory is held
// for the duration of a message's processing at the server. It is the one
// component not modeled as a queue (§3.4.2), so it is not an agent; the
// topology router consults it while expanding messages (sequential phase)
// and marks it as the occupancy (core.Occupancy) of the processing stages.
type Memory struct {
	capacity float64 // bytes
	used     float64 // bytes currently held
	hitRate  float64 // probability a storage access hits the cache
	hitThr   uint64  // hitThreshold(hitRate)
	rng      rand.PCG
	peak     float64
}

// hitThreshold returns the integer form of a hit probability p in [0, 1]
// that drawHit compares against: ceil(p·2^53).
func hitThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// drawHit decides a cache hit on one draw from src, given the hit
// probability's threshold thr = hitThreshold(p). It is
// rand.New(src).Float64() < p — the same draw, Float64's own definition
// m/2^53 for the 53-bit word m — without the interface call or the float
// conversion per draw. The comparison is exact: p·2^53 scales by a power of
// two, and an integer m lies below a real x iff it lies below ceil(x), so
// m/2^53 < p ⇔ m < ceil(p·2^53).
func drawHit(src *rand.PCG, thr uint64) bool {
	return src.Uint64()<<11>>11 < thr
}

// NewMemory creates a memory component with capacity in bytes and a cache
// hit rate in [0,1], checked as one conjunction so NaN and ±Inf are
// rejected. The rng stream keeps hit decisions deterministic:
// its state is derived from the caller's seed through core.DeriveSeed, so
// each memory's draws depend only on its own identity.
func NewMemory(capacity, hitRate float64, seed uint64) *Memory {
	if !(capacity > 0 && hitRate >= 0 && hitRate <= 1 && finite(capacity)) {
		panic(fmt.Sprintf("hardware: invalid Memory capacity=%v hitRate=%v", capacity, hitRate))
	}
	m := &Memory{capacity: capacity, hitRate: hitRate, hitThr: hitThreshold(hitRate)}
	m.rng.Seed(core.DeriveSeed(seed, 1), core.DeriveSeed(seed, 2))
	return m
}

// Capacity returns the memory size in bytes.
func (m *Memory) Capacity() float64 { return m.capacity }

// Used returns the bytes currently held.
func (m *Memory) Used() float64 { return m.used }

// Peak returns the maximum bytes ever held.
func (m *Memory) Peak() float64 { return m.peak }

// Acquire holds b bytes for the duration of a message's processing.
// Occupancy may exceed capacity — real servers swap — but the overflow is
// observable through Used()/Capacity() for saturation detection.
func (m *Memory) Acquire(b float64) {
	if b < 0 {
		panic("hardware: negative memory acquisition")
	}
	m.used += b
	if m.used > m.peak {
		m.peak = m.used
	}
}

// releaseSlack bounds the float rounding a balanced acquire/release history
// can leave behind, relative to the peak occupancy: every operation rounds
// at most half an ulp of the magnitude held (2^-53 of it), so 1e-9 covers
// ~10^7 operations even if every rounding fell the same way, while a real
// imbalance is a whole message's bytes. The absolute floor keeps small
// memories as tolerant as they were.
const releaseSlack = 1e-9

// Release returns b bytes. Releasing more than held panics: it indicates
// unbalanced stage occupancy. Rounding residue below zero is clamped.
func (m *Memory) Release(b float64) {
	if b < 0 {
		panic("hardware: negative memory release")
	}
	m.used -= b
	if m.used < -max(1e-6, m.peak*releaseSlack) {
		panic(fmt.Sprintf("hardware: memory over-released to %v", m.used))
	}
	if m.used < 0 {
		m.used = 0
	}
}

// Hit reports whether a storage access hits the cache, consuming one
// deterministic random draw.
func (m *Memory) Hit() bool {
	if m.hitRate <= 0 {
		return false
	}
	if m.hitRate >= 1 {
		return true
	}
	return drawHit(&m.rng, m.hitThr)
}
