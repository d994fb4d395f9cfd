package cascade

import (
	"reflect"
	"testing"
)

// TestPackedConstructorsAllocs pins what the operation constructors cost:
// two allocations, the step header and one message array behind every step.
func TestPackedConstructorsAllocs(t *testing.T) {
	c, a := End{Role: Client}, End{Role: App}
	op := loginOp()
	cases := map[string]func(){
		"Seq":     func() { Seq("S", Msg{From: c, To: a}, Msg{From: a, To: c}, Msg{From: c, To: a}) },
		"Scale":   func() { op.Scale("S", 2) },
		"ScaleIO": func() { op.ScaleIO("S", 2) },
	}
	for name, f := range cases {
		if got := testing.AllocsPerRun(50, f); got != 2 {
			t.Errorf("%s: %v allocs, want 2", name, got)
		}
	}
}

// TestPackedStepsAreCapped: each packed step is capped at its own length,
// so an append to one never writes into the next.
func TestPackedStepsAreCapped(t *testing.T) {
	c, a := End{Role: Client}, End{Role: App}
	op := Seq("S", Msg{From: c, To: a, Cost: R{NetBytes: 1}}, Msg{From: a, To: c, Cost: R{NetBytes: 2}})
	want := op.Steps[1][0]
	_ = append(op.Steps[0], Msg{Cost: R{NetBytes: 99}})
	if op.Steps[1][0] != want {
		t.Fatalf("an append to step 0 wrote into step 1: %+v", op.Steps[1][0])
	}
}

// TestBuilderDraftAndPackerRepeat: a builder's draft holds the steps added
// since the last draft, and a repeated packed step shares the messages of
// the step before it.
func TestBuilderDraftAndPackerRepeat(t *testing.T) {
	c, a := End{Role: Client}, End{Role: App}
	m1, m2 := Msg{From: c, To: a, Cost: R{CPUCycles: 1}}, Msg{From: a, To: c, Cost: R{NetBytes: 2}}
	var b Builder
	b.Fan(3, m1)
	b.Step(m2)
	first := b.Draft("A")
	want := Op{Name: "A", Steps: [][]Msg{{m1, m1, m1}, {m2}}}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("draft %+v, want %+v", first, want)
	}
	b.Step(m2, m1)
	if got := b.Draft("B"); !reflect.DeepEqual(got, Op{Name: "B", Steps: [][]Msg{{m2, m1}}}) {
		t.Fatalf("second draft %+v", got)
	}

	p := Pack("R", 3, 2)
	copy(p.Step(2), []Msg{m1, m2})
	p.Repeat()
	p.Repeat()
	op := p.Op()
	if len(op.Steps) != 3 || &op.Steps[2][0] != &op.Steps[0][0] || !reflect.DeepEqual(op.Steps[1], []Msg{m1, m2}) {
		t.Fatalf("repeated steps do not share the first one's messages: %+v", op)
	}
}
