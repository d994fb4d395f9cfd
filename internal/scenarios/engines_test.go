package scenarios

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/metrics"
)

// runValidationWith runs a shortened validation experiment under one
// engine on the reference loop, the only loop that sweeps through it. Short
// enough for a table of engines, long enough that hundreds of flows overlap
// and exercise the active-set machinery.
func runValidationWith(t *testing.T, eng core.Engine) *ValidationResult {
	t.Helper()
	res, err := RunValidation(ValidationConfig{
		Experiment: 1, Seed: 42, Engine: eng,
		LaunchFor: 120, RunFor: 150, SteadyStart: 30, SteadyEnd: 120,
		LoopFlags: reference(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameSeries asserts two series are bit-for-bit identical.
func sameSeries(t *testing.T, label string, ref, got *metrics.Series) {
	t.Helper()
	if (ref == nil) != (got == nil) {
		t.Fatalf("%s: one engine recorded the series, the other did not", label)
	}
	if ref == nil {
		return
	}
	if ref.Len() != got.Len() {
		t.Fatalf("%s: %d samples vs %d", label, ref.Len(), got.Len())
	}
	for i := range ref.V {
		if ref.T[i] != got.T[i] || ref.V[i] != got.V[i] {
			t.Fatalf("%s: sample %d differs: (%v,%v) vs (%v,%v)",
				label, i, ref.T[i], ref.V[i], got.T[i], got.V[i])
		}
	}
}

// TestEngineEquivalenceOnValidation is the engine determinism contract on
// the loop the engines serve — the reference per-tick sweep of Chapter 4:
// the validation scenario must produce identical completed operation
// counts, response-time records and collector series under the sequential
// engine and every parallel one — both Chapter-4 engines at several thread
// counts, and dispatch.Sharded's chunked Sweep. Sweep parallelism is a
// performance concern only — any divergence here is a determinism bug.
func TestEngineEquivalenceOnValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("engine equivalence matrix skipped in -short")
	}
	ref := runValidationWith(t, &core.SequentialEngine{})

	cases := []struct {
		name string
		mk   func() core.Engine
	}{
		{"scatter-gather-2", func() core.Engine { return dispatch.NewScatterGather(2) }},
		{"scatter-gather-8", func() core.Engine { return dispatch.NewScatterGather(8) }},
		{"h-dispatch-1x16", func() core.Engine { return dispatch.NewHDispatch(1, 16) }},
		{"h-dispatch-4x64", func() core.Engine { return dispatch.NewHDispatch(4, 64) }},
		{"h-dispatch-8x64", func() core.Engine { return dispatch.NewHDispatch(8, 64) }},
		{"sharded-2", func() core.Engine { return dispatch.NewSharded(2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runValidationWith(t, tc.mk())
			if ref.CompletedOps != got.CompletedOps {
				t.Errorf("completed ops: %d vs %d", ref.CompletedOps, got.CompletedOps)
			}
			// Response-time records: same (op, dc) populations, same values.
			refKeys, gotKeys := ref.Responses.Keys(), got.Responses.Keys()
			if len(refKeys) != len(gotKeys) {
				t.Fatalf("response keys: %d vs %d", len(refKeys), len(gotKeys))
			}
			for i, k := range refKeys {
				if gotKeys[i] != k {
					t.Fatalf("response key %d: %v vs %v", i, k, gotKeys[i])
				}
				sameSeries(t, fmt.Sprintf("responses %s@%s", k.Op, k.DC),
					ref.Responses.Series(k.Op, k.DC), got.Responses.Series(k.Op, k.DC))
			}
			// Collector series: concurrent clients and per-tier CPU.
			sameSeries(t, "clients", ref.Clients, got.Clients)
			for tier, s := range ref.CPU {
				sameSeries(t, "cpu:"+tier, s, got.CPU[tier])
			}
		})
	}
}

// TestMeasureEngineSpeedupShort drives the Table 4.1 / 4.2 measurement
// (gdisim -table) at smoke size: one row per thread count, each timed, and
// speedups relative to the first row.
func TestMeasureEngineSpeedupShort(t *testing.T) {
	for _, mech := range []Mechanism{ScatterGather, HDispatch} {
		rows, err := MeasureEngineSpeedup(mech, []int{1, 2}, 0.05, 0.1, 0)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if len(rows) != 2 || rows[0].Threads != 1 || rows[1].Threads != 2 {
			t.Fatalf("%s: rows %+v, want one per thread count 1, 2", mech, rows)
		}
		if rows[0].Speedup != 1 {
			t.Errorf("%s: first row speedup %v, want exactly 1", mech, rows[0].Speedup)
		}
		for _, r := range rows {
			if !(r.Seconds > 0) {
				t.Errorf("%s: %d threads timed at %v s", mech, r.Threads, r.Seconds)
			}
		}
	}
}
