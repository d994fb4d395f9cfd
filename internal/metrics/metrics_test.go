package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAddAndWindow(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i)*2)
	}
	w := s.Window(2, 5)
	if len(w) != 3 || w[0] != 4 || w[2] != 8 {
		t.Errorf("Window(2,5) = %v", w)
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSeriesRejectsOutOfOrder(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add did not panic")
		}
	}()
	s.Add(0.5, 0)
}

func TestSeriesMeanStd(t *testing.T) {
	s := &Series{Name: "x"}
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(float64(i), v)
	}
	if m := s.Mean(0, 8); math.Abs(m-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if sd := s.Std(0, 8); math.Abs(sd-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", sd)
	}
}

func TestSeriesMax(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(0, 1)
	s.Add(1, 5)
	s.Add(2, 3)
	tm, v, ok := s.Max()
	if !ok || tm != 1 || v != 5 {
		t.Errorf("Max = (%v,%v,%v)", tm, v, ok)
	}
	var empty Series
	if _, _, ok := empty.Max(); ok {
		t.Error("empty Max should report !ok")
	}
}

func TestSeriesAtZeroOrderHold(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(1, 10)
	s.Add(3, 30)
	cases := []struct{ t, want float64 }{
		{0.5, 0}, {1, 10}, {2, 10}, {3, 30}, {99, 30},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSeriesHourly(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(600, 1)   // hour 0
	s.Add(1800, 3)  // hour 0
	s.Add(4000, 10) // hour 1
	h := s.Hourly(3)
	if h[0] != 2 || h[1] != 10 || h[2] != 0 {
		t.Errorf("Hourly = %v", h)
	}
}

func TestRMSE(t *testing.T) {
	ref := &Series{Name: "ref"}
	pred := &Series{Name: "pred"}
	for i := 0; i < 4; i++ {
		ref.Add(float64(i), 1)
		pred.Add(float64(i), 2)
	}
	got, err := RMSE(ref, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("RMSE = %v, want 1", got)
	}
	if _, err := RMSE(&Series{Name: "empty"}, pred); err == nil {
		t.Error("RMSE on empty reference should error")
	}
}

func TestRMSEValues(t *testing.T) {
	got, err := RMSEValues([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((9.0 + 16.0) / 2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSEValues = %v, want %v", got, want)
	}
	if _, err := RMSEValues(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := RMSEValues([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
}

// Property: RMSE is zero iff the series agree at reference instants, and is
// symmetric under exchanging equal-time-base series.
func TestRMSEProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		a := &Series{Name: "a"}
		b := &Series{Name: "b"}
		for i, r := range raw {
			a.Add(float64(i), float64(r))
			b.Add(float64(i), float64(r))
		}
		same, err := RMSE(a, b)
		if err != nil || same != 0 {
			return false
		}
		ab, _ := RMSEValues(a.V, b.V)
		ba, _ := RMSEValues(b.V, a.V)
		return ab == ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	busy := 0.0
	c.Register(Probe{Key: "cpu", Sample: SampleFunc(func(window float64) float64 {
		u := busy / window
		busy = 0
		return u
	})})
	busy = 5
	c.Snapshot(10)
	busy = 2
	c.Snapshot(20)
	s := c.MustSeries("cpu")
	if s.Len() != 2 {
		t.Fatalf("series len = %d", s.Len())
	}
	if math.Abs(s.V[0]-0.5) > 1e-12 || math.Abs(s.V[1]-0.2) > 1e-12 {
		t.Errorf("utilizations = %v", s.V)
	}
}

func TestCollectorDuplicateKeyPanics(t *testing.T) {
	c := NewCollector()
	c.Register(Probe{Key: "x", Sample: SampleFunc(func(float64) float64 { return 0 })})
	defer func() {
		if recover() == nil {
			t.Error("duplicate key did not panic")
		}
	}()
	c.Register(Probe{Key: "x", Sample: SampleFunc(func(float64) float64 { return 0 })})
}

func TestCollectorUnknownSeriesPanics(t *testing.T) {
	c := NewCollector()
	if c.Series("nope") != nil {
		t.Error("Series on unknown key should return nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSeries on unknown key did not panic")
		}
	}()
	c.MustSeries("nope")
}

func TestResponses(t *testing.T) {
	r := NewResponses()
	r.Record("OPEN", "NA", 100, 30)
	r.Record("OPEN", "NA", 200, 40)
	r.Record("OPEN", "EU", 150, 35)
	if m, ok := r.MeanAll("OPEN", "NA"); !ok || m != 35 {
		t.Errorf("MeanAll = %v,%v", m, ok)
	}
	if mx, ok := r.Max("OPEN", "NA"); !ok || mx != 40 {
		t.Errorf("Max = %v,%v", mx, ok)
	}
	if n := r.Count("OPEN", "EU"); n != 1 {
		t.Errorf("Count = %d", n)
	}
	if _, ok := r.Mean("OPEN", "NA", 0, 50); ok {
		t.Error("Mean over empty window should report !ok")
	}
	keys := r.Keys()
	if len(keys) != 2 || keys[0].DC != "EU" {
		t.Errorf("Keys = %v", keys)
	}
	if _, err := r.HourlyMeans("SAVE", "NA", 24); err == nil {
		t.Error("HourlyMeans on unknown op should error")
	}
	h, err := r.HourlyMeans("OPEN", "NA", 1)
	if err != nil || h[0] != 35 {
		t.Errorf("HourlyMeans = %v err=%v", h, err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Table X", Headers: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333")
	out := tb.String()
	if !strings.Contains(out, "Table X") || !strings.Contains(out, "333") {
		t.Errorf("table output missing content:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized row did not panic")
		}
	}()
	tb.AddRow("1", "2", "3")
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("Sparkline(nil) = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(got)) != 4 {
		t.Errorf("Sparkline length = %d", len([]rune(got)))
	}
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Errorf("flat sparkline = %q", flat)
	}
}

// HourlyMeans returns per-hour mean response times for op at dc, for the
// response-time-by-hour figures (6-15..6-20).
func (r *Responses) HourlyMeans(op, dc string, hours int) ([]float64, error) {
	s := r.Series(op, dc)
	if s == nil {
		return nil, fmt.Errorf("metrics: no responses recorded for %s at %s", op, dc)
	}
	return s.Hourly(hours), nil
}
