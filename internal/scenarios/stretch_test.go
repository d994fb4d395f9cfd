package scenarios

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiment"
)

// TestMailboxAuditContract pins the run counters the benchmark harness
// still reads from the removed span runtime — Barriers, WindowsStretched,
// MailboxApplied, documented as always 0 — across the engine matrix on the
// consolidation night hour: the sequential engine, a sharded engine whose
// workers were stopped before the run (noshards) or sit idle
// (default-gate) on the production loop, and one swept every tick on the
// reference loop (nostretch). Every leg must also reproduce the sequential
// production loop's digest.
func TestMailboxAuditContract(t *testing.T) {
	if testing.Short() {
		t.Skip("run-counter contract skipped in -short")
	}
	run := func(eng core.Engine, flags core.LoopFlags) *CaseStudy {
		t.Helper()
		cs, err := NewConsolidation(CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4,
			Engine: eng, LoopFlags: flags,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		return cs
	}
	ref := run(nil, core.LoopFlags{}).Result.Digest()
	for _, tc := range []struct {
		name  string
		eng   core.Engine
		flags core.LoopFlags
	}{
		{"sequential", &core.SequentialEngine{}, core.LoopFlags{}},
		{"noshards", stopped(4), core.LoopFlags{}},
		{"default-gate", sharded(4), core.LoopFlags{}},
		{"nostretch", sharded(4), reference(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := run(tc.eng, tc.flags)
			st := cs.Result.Stats
			if st.Barriers != 0 || st.WindowsStretched != 0 || st.MailboxApplied != 0 {
				t.Errorf("%d barriers, %d stretched windows, %d mailbox entries; want none",
					st.Barriers, st.WindowsStretched, st.MailboxApplied)
			}
			if w, ok := tc.eng.(*watched); ok {
				checkUse(t, w, tc.flags.NoFastForward)
			}
			if got := cs.Result.Digest(); got != ref {
				t.Errorf("digest diverged from the sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
}

// TestAutoShards pins what became of "sharded:auto" on both surfaces of a
// shipped scenario document — the decoded Document and its JSON: the
// selector resolves to nothing and fails compilation with
// ErrEngineRemoved naming it, as does a malformed shard count, while the
// document as shipped compiles.
func TestAutoShards(t *testing.T) {
	doc, err := config.Load("../../examples/chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.FromDocument(doc); err != nil {
		t.Fatalf("shipped document rejected: %v", err)
	}
	for _, sel := range []string{"sharded:auto", "sharded:nope"} {
		doc.Engine = sel
		var buf strings.Builder
		if err := doc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := config.Decode(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		for surface, d := range map[string]*config.Document{"document": doc, "json": back} {
			if _, err := experiment.FromDocument(d); !errors.Is(err, experiment.ErrEngineRemoved) || !strings.Contains(err.Error(), sel) {
				t.Errorf("%s surface, engine %q: FromDocument error %v, want ErrEngineRemoved naming the selector", surface, sel, err)
			}
		}
	}
}
