package queueing

import (
	"errors"
	"fmt"
	"math"
)

// Analytic M/M/c results (Kendall's notation, Appendix A of the thesis).
// These closed forms are the classical queueing-theory counterparts of the
// simulated queues and are used in tests to cross-validate the discrete-time
// implementations against theory.

// ErrSaturated reports an offered load at or above system capacity
// (rho = a/c >= 1): the steady-state M/M/c quantities do not exist there.
// Callers that must distinguish saturation from argument errors — the fluid
// tier's saturation guard is designed to trip strictly before this —
// detect it with errors.Is.
var ErrSaturated = errors.New("queueing: offered load at or above capacity")

// ErlangC returns the probability that an arriving customer must wait in an
// M/M/c system with offered load a = lambda/mu (in Erlangs). It requires
// a < c for stability and wraps ErrSaturated otherwise.
func ErlangC(c int, a float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("queueing: ErlangC needs c > 0, got %d", c)
	}
	if a < 0 {
		return 0, fmt.Errorf("queueing: ErlangC needs a >= 0, got %v", a)
	}
	if a >= float64(c) {
		return 0, fmt.Errorf("queueing: unstable system a=%v >= c=%d: %w", a, c, ErrSaturated)
	}
	// Iterative Erlang-B then convert to Erlang-C for numerical stability.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b)), nil
}

// MMc summarizes an M/M/c queue with arrival rate lambda and per-server
// service rate mu.
type MMc struct {
	C      int
	Lambda float64
	Mu     float64
}

// Utilization returns rho = lambda/(c*mu).
func (m MMc) Utilization() float64 { return m.Lambda / (float64(m.C) * m.Mu) }

// MeanWait returns the mean time spent waiting in queue (Wq).
func (m MMc) MeanWait() (float64, error) {
	pw, err := ErlangC(m.C, m.Lambda/m.Mu)
	if err != nil {
		return 0, err
	}
	return pw / (float64(m.C)*m.Mu - m.Lambda), nil
}

// MeanResponse returns the mean sojourn time (W = Wq + 1/mu).
func (m MMc) MeanResponse() (float64, error) {
	wq, err := m.MeanWait()
	if err != nil {
		return 0, err
	}
	return wq + 1/m.Mu, nil
}

// WaitQuantile returns the p-quantile of the waiting time Wq. The M/M/c
// FCFS waiting time is a mixture of an atom at zero (probability 1 - Pw,
// Pw from Erlang C) and an Exp(c*mu - lambda) excursion, so the quantile
// has the closed form max(0, ln(Pw/(1-p)) / (c*mu - lambda)) — exact, no
// approximation.
func (m MMc) WaitQuantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("queueing: quantile needs 0 < p < 1, got %v", p)
	}
	pw, err := ErlangC(m.C, m.Lambda/m.Mu)
	if err != nil {
		return 0, err
	}
	if pw <= 1-p {
		return 0, nil
	}
	theta := float64(m.C)*m.Mu - m.Lambda
	return math.Log(pw/(1-p)) / theta, nil
}

// ResponseQuantile returns the p-quantile of the sojourn time T = Wq + S.
// The exact M/M/c FCFS sojourn tail is a two-exponential mixture,
//
//	P(T > t) = (1-Pw) e^{-mu t} + Pw (theta e^{-mu t} - mu e^{-theta t}) / (theta - mu)
//
// with theta = c*mu - lambda (degenerating to e^{-mu t}(1 + Pw mu t) when
// theta = mu, and to the pure exponential Exp(mu - lambda) tail at c = 1).
// The quantile inverts this tail by bisection; the bracketing loop and 200
// halvings bound the numerical error by ~1e-12 relative, so the returned
// value is exact for the M/M/c abstraction — the only modeling error a
// caller inherits is the M/M/c abstraction of the station itself, not this
// inversion. For quantiles of the mean-field fluid tier the exponential
// service assumption overestimates high percentiles of near-deterministic
// services (an Exp(mu) p90 is ln(10)/mu ≈ 2.3 service means); callers
// wanting "queueing-delay p90 on top of a measured base" should therefore
// combine WaitQuantile with their own base percentile, which is what
// internal/fluid does.
func (m MMc) ResponseQuantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("queueing: quantile needs 0 < p < 1, got %v", p)
	}
	pw, err := ErlangC(m.C, m.Lambda/m.Mu)
	if err != nil {
		return 0, err
	}
	mu := m.Mu
	theta := float64(m.C)*mu - m.Lambda
	tail := func(t float64) float64 {
		if math.Abs(theta-mu) < 1e-12*mu {
			return math.Exp(-mu*t) * (1 + pw*mu*t)
		}
		return (1-pw)*math.Exp(-mu*t) + pw*(theta*math.Exp(-mu*t)-mu*math.Exp(-theta*t))/(theta-mu)
	}
	target := 1 - p
	// Bracket: the tail decays at least as fast as the slower of the two
	// exponentials, so growing the upper bound geometrically terminates.
	lo, hi := 0.0, 1/mu
	for tail(hi) > target {
		hi *= 2
		if hi > 1e18 {
			return 0, fmt.Errorf("queueing: ResponseQuantile failed to bracket p=%v", p)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tail(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

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

// RequiredServers returns the minimum number of servers c such that an M/M/c
// queue with the given lambda and mu keeps mean waiting time below maxWait.
// It is the capacity-planning primitive behind the examples/capacity tool.
func RequiredServers(lambda, mu, maxWait float64) (int, error) {
	if lambda <= 0 || mu <= 0 || maxWait <= 0 {
		return 0, fmt.Errorf("queueing: RequiredServers needs positive arguments")
	}
	minC := int(math.Ceil(lambda/mu + 1e-9))
	if float64(minC)*mu <= lambda {
		minC++
	}
	for c := minC; c < minC+10000; c++ {
		m := MMc{C: c, Lambda: lambda, Mu: mu}
		wq, err := m.MeanWait()
		if err != nil {
			continue
		}
		if wq <= maxWait {
			return c, nil
		}
	}
	return 0, fmt.Errorf("queueing: no server count below %d satisfies wait %v", minC+10000, maxWait)
}
