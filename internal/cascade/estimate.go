package cascade

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/topology"
)

// Estimate returns the isolated (single-user, idle-infrastructure) duration
// of an operation under the binding: per step, the slowest parallel message
// plan; across steps, the sum. It is exact for cache-free infrastructures
// (the Chapter 5 validation assumes "no caching between tiers", §5.2.4);
// with caches enabled the estimate consumes hit-decision randomness like a
// real expansion would.
func Estimate(op Op, b *Binding, step float64) (float64, error) {
	p, err := compile(op)
	if err != nil {
		return 0, err
	}
	var plan core.MessagePlan // one plan's buffers serve every message
	return p.estimate(op, b, resolveTiers(b.Local, b.Master), step, &plan)
}

// Estimate is the package-level Estimate of the catalog's operation i,
// under a binding made as NewBinding(inf, local, master) makes one (it
// draws a client slot) and dropped after the call. The program comes from
// the table, compiled on first use. plan's buffers hold each message in
// turn; a caller estimating a whole catalog passes the same plan every
// time.
func (t *Programs) Estimate(i int, inf *topology.Infrastructure, local, master *topology.DataCenter,
	step float64, plan *core.MessagePlan) (float64, error) {
	var b Binding
	b.bind(inf, local, master)
	p, err := t.compiled(i)
	if err != nil {
		return 0, err
	}
	var tiers siteTiers
	tiers.resolve(local, master)
	if cap(plan.Stages) == 0 {
		// The plan holds one message at a time: room for the stages an
		// expander allows a message, and its one hold span.
		plan.Stages = make([]core.Stage, 0, messageStages(&b))
		plan.Holds = make([]core.Hold, 0, 1)
	}
	return p.estimate(t.ops[i], &b, &tiers, step, plan)
}

// estimate is Estimate for op compiled into p, its ends resolved through
// tiers and its stages appended into plan.
func (p *program) estimate(op Op, b *Binding, tiers *siteTiers, step float64, plan *core.MessagePlan) (float64, error) {
	if err := p.bindable(b, tiers); err != nil {
		return 0, err
	}
	total := 0.0
	codes := p.msgs
	for _, msgs := range op.Steps {
		slowest := 0.0
		for i, m := range msgs {
			plan.Stages, plan.Holds = plan.Stages[:0], plan.Holds[:0]
			if err := b.appendMsg(plan, codes[i], tiers, m.Cost); err != nil {
				return 0, err
			}
			if d := topology.PlanDuration(*plan, step); d > slowest {
				slowest = d
			}
		}
		codes = codes[len(msgs):]
		total += slowest
	}
	return total, nil
}

// CalibrateClientWork returns a copy of the operation whose client-side
// processing is adjusted so that the isolated duration equals target
// seconds. It finds the last message addressed to the client and solves for
// the client CPU cycles that close the gap — the inverse of the paper's
// canonical-cost profiling (§3.5.2): the thesis measured costs and reported
// durations; we encode the published durations and derive the free cost
// component. Server-side costs are untouched, so tier utilizations remain
// governed by the explicit cost tables.
func CalibrateClientWork(op Op, b *Binding, step, target float64) (Op, error) {
	if b.Slot == nil {
		return Op{}, fmt.Errorf("cascade: calibration requires a client population at %s", b.Local.Name)
	}
	last := -1
	for i := len(op.Steps) - 1; i >= 0 && last < 0; i-- {
		for j := len(op.Steps[i]) - 1; j >= 0; j-- {
			if op.Steps[i][j].To.Role == Client {
				last = i
				break
			}
		}
	}
	if last < 0 {
		return Op{}, fmt.Errorf("cascade: operation %s has no client-bound message to calibrate", op.Name)
	}
	base, err := Estimate(op, b, step)
	if err != nil {
		return Op{}, err
	}
	// Coarser time steps add forwarding overhead per stage; allow the
	// calibrated duration to overshoot tight targets by up to 10% rather
	// than failing (the overshoot shows up honestly in the measured
	// response times).
	gap := target - base
	if gap < -0.10*target {
		return Op{}, fmt.Errorf("cascade: operation %s already takes %.2fs, above target %.2fs",
			op.Name, base, target)
	}
	if gap < 0 {
		gap = 0
	}
	// Only the outer step table and the calibrated step are copied; every
	// other step shares its messages with op. Nothing mutates an Op's steps
	// once it is built.
	ghz := b.Local.Clients.Spec.GHz
	out := Op{Name: op.Name, Steps: slices.Clone(op.Steps)}
	msgs := slices.Clone(op.Steps[last])
	for j := range msgs {
		if msgs[j].To.Role == Client {
			msgs[j].Cost.CPUCycles += gap * ghz * 1e9
			break
		}
	}
	out.Steps[last] = msgs
	return out, nil
}
