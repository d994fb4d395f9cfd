package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/metrics"
	"repro/internal/queueing"
)

// fuzzIn turns fuzz bytes into platform decisions: each decision consumes
// one byte, so a mutated byte moves one choice; once the bytes run out a
// stream seeded from their hash carries on, so short inputs (the seed
// corpus) still build full platforms.
type fuzzIn struct {
	data []byte
	rng  *rand.Rand
}

func newFuzzIn(data []byte) *fuzzIn {
	h := fnv.New64a()
	h.Write(data)
	return &fuzzIn{data: data, rng: rand.New(rand.NewPCG(h.Sum64(), uint64(len(data))))}
}

// intn draws from [0, n).
func (f *fuzzIn) intn(n int) int {
	if len(f.data) == 0 {
		return f.rng.IntN(n)
	}
	b := f.data[0]
	f.data = f.data[1:]
	return int(b) % n
}

// fuzzStage is one stage of a generated cascade: an agent and its work in
// ticks of service (or of delay, on a delay line).
type fuzzStage struct {
	agent int
	ticks float64
}

// fuzzSource launches its cascade every period ticks. A parking source
// instead launches once and parks at +Inf; the operation's OnComplete
// re-arms it, the dormant-source path of RearmSource. Polls before next are
// no-ops, as the NextPoll contract requires — the reference loop issues
// them every tick.
type fuzzSource struct {
	name    string
	steps   [][][]fuzzStage // step -> message -> stages
	period  float64
	parking bool
	next    float64
	left    int
	handle  SourceHandle
	agents  []QueueAgent
	rates   []float64
}

func (fs *fuzzSource) Poll(s *Simulation, now float64) {
	if now < fs.next || fs.left == 0 {
		return
	}
	fs.left--
	fs.next = now + fs.period
	if fs.parking || fs.left == 0 {
		fs.next = math.Inf(1)
	}
	dt := s.Clock().Step()
	op := OpRun{
		Name: fs.name, DC: "NA", NumSteps: len(fs.steps),
		Expand: func(step int) []MessagePlan {
			plans := make([]MessagePlan, len(fs.steps[step]))
			for m, stages := range fs.steps[step] {
				for _, st := range stages {
					plans[m].Stages = append(plans[m].Stages, Stage{
						Queue:  fs.agents[st.agent],
						Demand: st.ticks * dt * fs.rates[st.agent],
						Delay:  st.ticks * dt,
					})
				}
			}
			return plans
		},
	}
	if fs.parking {
		op.OnComplete = func(now, _ float64) {
			if fs.left > 0 {
				fs.next = now + fs.period
				s.RearmSource(fs.handle)
			}
		}
	}
	s.StartOp(op)
}

func (fs *fuzzSource) NextPoll(float64) float64 { return fs.next }

// fuzzRun builds the platform the bytes describe — 2–12 queue agents of
// mixed FCFS / PS / delay-line kinds and rates, an optional pinned
// default-horizon agent, 1–4 timed or parking sources launching fork-join
// cascades, a random collector period — and runs it for a few thousand
// ticks on the production or the reference loop.
func fuzzRun(data []byte, ref bool) *Simulation {
	return fuzzPlatform(data, Config{LoopFlags: refFlags(ref)})
}

// fuzzPlatform is fuzzRun on any engine and flags.
func fuzzPlatform(data []byte, cfg Config) *Simulation {
	return fuzzPlatformRun(data, cfg, (*Simulation).RunFor)
}

// fuzzPlatformRun is fuzzPlatform with the run handed to drive, along with
// the simulated seconds the bytes chose.
func fuzzPlatformRun(data []byte, cfg Config, drive func(*Simulation, float64)) *Simulation {
	in := newFuzzIn(data)
	cfg.Step, cfg.Seed, cfg.CollectEvery = 0.01, 1, 1+in.intn(300)
	s := NewSimulation(cfg)
	s.Collector.Register(metrics.Probe{Key: "flows", Sample: func(float64) float64 {
		return float64(s.ActiveFlows())
	}})
	var agents []QueueAgent
	var rates []float64
	for i, n := 0, 2+in.intn(11); i < n; i++ {
		name := fmt.Sprintf("a%d", i)
		rate := 50 * float64(1+in.intn(20))
		var q interface {
			hzQueue
			TakeBusy() float64
		}
		switch in.intn(3) {
		case 0:
			q = queueing.NewFCFS(1+in.intn(3), rate)
		case 1:
			q = queueing.NewPS(rate, 1+in.intn(4), 0.004*float64(in.intn(6)))
		default:
			agents = append(agents, NewDelayLine(s, name))
			rates = append(rates, 1)
			continue
		}
		agents = append(agents, newHzAgentOn(s, name, q))
		rates = append(rates, rate)
		// Busy accumulators are what collector boundaries must sample at
		// exactly the reference loop's ticks.
		s.Collector.Register(metrics.Probe{Key: "busy:" + name, Sample: func(float64) float64 {
			return q.TakeBusy()
		}})
	}
	if in.intn(4) == 0 {
		v := &vetoAgent{}
		v.InitAgent(s.NextAgentID(), "pinned")
		s.AddAgent(v)
		v.Pin()
	}
	for i, n := 0, 1+in.intn(4); i < n; i++ {
		fs := &fuzzSource{
			name: fmt.Sprintf("op%d", i), agents: agents, rates: rates,
			period:  0.01 * float64(1+in.intn(150)),
			parking: in.intn(2) == 0,
			next:    0.01 * float64(in.intn(200)),
			left:    1 + in.intn(40),
		}
		for st, nst := 0, 1+in.intn(3); st < nst; st++ {
			msgs := make([][]fuzzStage, 1+in.intn(4)) // fork width
			for m := range msgs {
				for h, nh := 0, 1+in.intn(3); h < nh; h++ {
					msgs[m] = append(msgs[m], fuzzStage{
						agent: in.intn(len(agents)),
						ticks: 0.2 + float64(in.intn(200))/8,
					})
				}
			}
			fs.steps = append(fs.steps, msgs)
		}
		fs.handle = s.AddSource(fs)
	}
	drive(s, 20+float64(in.intn(40)))
	return s
}

// FuzzLoopMatchesReference is the differential fuzzer of ROADMAP item 5c in
// its smallest useful form: inputs nobody picked. Whatever platform the
// bytes build, the production loop must reproduce the reference loop's
// response records, collector series and completed-operation count bit for
// bit. As a plain test it runs the seed corpus; `go test -fuzz
// FuzzLoopMatchesReference ./internal/core` explores.
func FuzzLoopMatchesReference(f *testing.F) {
	for _, seed := range calendarPropertySeeds {
		f.Add(binary.LittleEndian.AppendUint64(nil, seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameRun(t, fuzzRun(data, true), fuzzRun(data, false))
	})
}

// sameRun asserts two simulations computed the same thing bit for bit:
// completed operations, flows still in flight, every response population,
// every collector series.
func sameRun(t *testing.T, ref, got *Simulation) {
	t.Helper()
	if r, g := ref.CompletedOps(), got.CompletedOps(); r != g {
		t.Errorf("completed ops: reference %d, got %d", r, g)
	}
	if r, g := ref.ActiveFlows(), got.ActiveFlows(); r != g {
		t.Errorf("flows in flight at the end: reference %d, got %d", r, g)
	}
	rk, gk := ref.Responses.Keys(), got.Responses.Keys()
	if len(rk) != len(gk) {
		t.Fatalf("response keys: reference %v, got %v", rk, gk)
	}
	for _, k := range rk {
		sameSeriesBits(t, "responses "+k.Op, ref.Responses.Series(k.Op, k.DC), got.Responses.Series(k.Op, k.DC))
	}
	for _, k := range ref.Collector.Keys() {
		sameSeriesBits(t, "collector "+k, ref.Collector.Series(k), got.Collector.Series(k))
	}
}
