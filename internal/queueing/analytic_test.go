package queueing

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// ForkJoinZeroLoadExp returns the exact mean completion time of an n-way
// fork-join whose branches have independent Exp(mu) service times and no
// queueing (zero load): E[max of n iid exponentials] = H_n / mu. It is the
// theoretical reference for the RAID/SAN fork-join structures under light
// load (Figs. 3-7 and 3-8).
func ForkJoinZeroLoadExp(n int, mu float64) (float64, error) {
	if n <= 0 || mu <= 0 {
		return 0, fmt.Errorf("queueing: ForkJoinZeroLoadExp needs n > 0, mu > 0")
	}
	return harmonic(n) / mu, nil
}

func harmonic(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// MeanQueueLength returns the mean number waiting (Lq), by Little's law.
func (m MMc) MeanQueueLength() (float64, error) {
	wq, err := m.MeanWait()
	if err != nil {
		return 0, err
	}
	return m.Lambda * wq, nil
}

// MM1PS gives the mean sojourn time of an M/M/1 processor-sharing queue,
// which equals the M/M/1-FCFS mean response (1/(mu-lambda)) by symmetry of
// the PS discipline, plus any constant latency.
func MM1PS(lambda, mu, latency float64) (float64, error) {
	if lambda >= mu {
		return 0, fmt.Errorf("queueing: unstable PS lambda=%v >= mu=%v", lambda, mu)
	}
	return 1/(mu-lambda) + latency, nil
}

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: P(wait) = rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		got, err := ErlangC(1, rho)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-rho) > 1e-12 {
			t.Errorf("ErlangC(1,%v) = %v, want %v", rho, got, rho)
		}
	}
	// Classic telephone-engineering value: c=10, a=7 Erlangs => ~0.2217.
	got, err := ErlangC(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.2217) > 0.001 {
		t.Errorf("ErlangC(10,7) = %v, want ~0.2217", got)
	}
}

func TestErlangCErrors(t *testing.T) {
	if _, err := ErlangC(0, 0.5); err == nil {
		t.Error("ErlangC(0,...) should error")
	}
	if _, err := ErlangC(2, -1); err == nil {
		t.Error("ErlangC with negative load should error")
	}
	if _, err := ErlangC(2, 2); err == nil {
		t.Error("ErlangC at saturation should error")
	}
}

func TestMMcMeanWaitMM1(t *testing.T) {
	// M/M/1: Wq = rho/(mu-lambda).
	m := MMc{C: 1, Lambda: 0.5, Mu: 1}
	wq, err := m.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5 / (1 - 0.5); math.Abs(wq-want) > 1e-12 {
		t.Errorf("Wq = %v, want %v", wq, want)
	}
	w, err := m.MeanResponse()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 / (1 - 0.5); math.Abs(w-want) > 1e-12 {
		t.Errorf("W = %v, want %v", w, want)
	}
}

func TestMMcLittleLaw(t *testing.T) {
	m := MMc{C: 4, Lambda: 3, Mu: 1}
	wq, err := m.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	lq, err := m.MeanQueueLength()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lq-m.Lambda*wq) > 1e-12 {
		t.Errorf("Little's law violated: Lq=%v lambda*Wq=%v", lq, m.Lambda*wq)
	}
}

// Property: Erlang C is monotone increasing in offered load and within [0,1].
func TestErlangCMonotoneInLoad(t *testing.T) {
	f := func(rawA, rawB uint16) bool {
		c := 8
		a := float64(rawA%700) / 100 // [0, 7)
		b := float64(rawB%700) / 100
		if a > b {
			a, b = b, a
		}
		pa, err1 := ErlangC(c, a)
		pb, err2 := ErlangC(c, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return pa >= 0 && pb <= 1 && pa <= pb+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding servers never increases the waiting probability.
func TestErlangCMonotoneInServers(t *testing.T) {
	f := func(raw uint16) bool {
		a := float64(raw%150)/100 + 0.1 // [0.1, 1.6)
		p2, err1 := ErlangC(2, a)
		p4, err2 := ErlangC(4, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return p4 <= p2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMM1PS(t *testing.T) {
	w, err := MM1PS(0.5, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 + 0.1; math.Abs(w-want) > 1e-12 {
		t.Errorf("MM1PS = %v, want %v", w, want)
	}
	if _, err := MM1PS(1, 1, 0); err == nil {
		t.Error("MM1PS at saturation should error")
	}
}

func TestForkJoinZeroLoadExp(t *testing.T) {
	got, err := ForkJoinZeroLoadExp(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + 0.5 + 1.0/3.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ForkJoinZeroLoadExp(3,2) = %v, want %v", got, want)
	}
	if _, err := ForkJoinZeroLoadExp(0, 1); err == nil {
		t.Error("n=0 should error")
	}
}

func TestRequiredServers(t *testing.T) {
	// lambda=3, mu=1: at least 4 servers for stability; more for tight SLAs.
	c, err := RequiredServers(3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c < 4 {
		t.Errorf("RequiredServers returned unstable count %d", c)
	}
	m := MMc{C: c, Lambda: 3, Mu: 1}
	wq, err := m.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if wq > 0.5 {
		t.Errorf("returned c=%d violates SLA: Wq=%v", c, wq)
	}
	if c > 4 {
		// The next smaller count must violate the SLA (minimality).
		m = MMc{C: c - 1, Lambda: 3, Mu: 1}
		if wq, err := m.MeanWait(); err == nil && wq <= 0.5 {
			t.Errorf("c=%d is not minimal, c-1 also satisfies SLA", c)
		}
	}
	if _, err := RequiredServers(-1, 1, 1); err == nil {
		t.Error("negative lambda should error")
	}
}

func TestErlangCSaturatedTyped(t *testing.T) {
	for _, tc := range []struct {
		c int
		a float64
	}{{1, 1}, {2, 2}, {4, 7.5}} {
		_, err := ErlangC(tc.c, tc.a)
		if !errors.Is(err, ErrSaturated) {
			t.Errorf("ErlangC(%d,%v) = %v, want ErrSaturated", tc.c, tc.a, err)
		}
	}
	// Argument errors are not saturation.
	if _, err := ErlangC(0, 0.5); errors.Is(err, ErrSaturated) {
		t.Error("ErlangC(0,...) should not be ErrSaturated")
	}
	if _, err := ErlangC(2, -1); errors.Is(err, ErrSaturated) {
		t.Error("ErlangC with negative load should not be ErrSaturated")
	}
}

// TestSaturationGuardTripsFirst is the fluid-tier guard property: whenever a
// ceiling utilization stays strictly below a guard value below one — the
// exact predicate internal/fluid uses to admit a segment to the analytic
// path — Erlang C evaluated at any load up to that ceiling cannot return
// ErrSaturated, so the guard always trips strictly before the analytic
// machinery errors.
func TestSaturationGuardTripsFirst(t *testing.T) {
	prop := func(cRaw uint8, muRaw, guardRaw, loadRaw uint16) bool {
		c := int(cRaw)%64 + 1
		mu := 0.01 + float64(muRaw)/65535*100
		guard := 0.05 + float64(guardRaw)/65535*0.94 // in [0.05, 0.99]
		rhoCeil := float64(loadRaw) / 65535 * 1.5    // offered ceilings up to 1.5x capacity
		lambdaCeil := rhoCeil * float64(c) * mu
		if rhoCeil >= guard {
			return true // guard trips: the fluid tier stays discrete, ErlangC is never consulted
		}
		for _, frac := range []float64{0.1, 0.5, 1.0} {
			if _, err := ErlangC(c, frac*lambdaCeil/mu); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWaitQuantileKnownValues(t *testing.T) {
	// M/M/1: Pw = rho, so the p-quantile is ln(rho/(1-p))/(mu-lambda) when
	// positive.
	m := MMc{C: 1, Lambda: 0.6, Mu: 1}
	q, err := m.WaitQuantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(0.6/0.1) / (1 - 0.6); math.Abs(q-want) > 1e-9 {
		t.Errorf("WaitQuantile(0.9) = %v, want %v", q, want)
	}
	// Below the zero atom the quantile is exactly zero: P(W=0) = 1-Pw = 0.4.
	q, err = m.WaitQuantile(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Errorf("WaitQuantile(0.3) = %v, want 0 (inside the atom)", q)
	}
}

func TestResponseQuantileKnownValues(t *testing.T) {
	// M/M/1 FCFS sojourn is exactly Exp(mu-lambda).
	m := MMc{C: 1, Lambda: 0.5, Mu: 2}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q, err := m.ResponseQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		want := -math.Log(1-p) / (2 - 0.5)
		if math.Abs(q-want) > 1e-9*want {
			t.Errorf("ResponseQuantile(%v) = %v, want %v", p, q, want)
		}
	}
	// Vanishing load, any c: the sojourn degenerates to the service time
	// Exp(mu).
	m = MMc{C: 8, Lambda: 1e-9, Mu: 3}
	q, err := m.ResponseQuantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if want := -math.Log(0.1) / 3; math.Abs(q-want) > 1e-6*want {
		t.Errorf("light-load ResponseQuantile(0.9) = %v, want %v", q, want)
	}
}

func TestResponseQuantileMonotoneAndConsistent(t *testing.T) {
	m := MMc{C: 4, Lambda: 3.2, Mu: 1}
	prev := 0.0
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		q, err := m.ResponseQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if q <= prev {
			t.Errorf("ResponseQuantile not increasing: p=%v -> %v after %v", p, q, prev)
		}
		prev = q
	}
	// The sojourn quantile dominates the waiting quantile at every p.
	for _, p := range []float64{0.5, 0.9} {
		wq, err := m.WaitQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := m.ResponseQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if rq <= wq {
			t.Errorf("ResponseQuantile(%v)=%v <= WaitQuantile(%v)=%v", p, rq, p, wq)
		}
	}
}
