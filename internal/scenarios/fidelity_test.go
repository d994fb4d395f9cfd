package scenarios

import "testing"

// TestFidelityTableIsConsistent checks the table without running anything:
// IDs are unique, every row can be read off a known scenario, and every
// band contains its own thesis value — a band that excludes it is a typo.
func TestFidelityTableIsConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range fidelityTable {
		if seen[r.ID] {
			t.Errorf("duplicate row ID %q", r.ID)
		}
		seen[r.ID] = true
		if r.read == nil {
			t.Errorf("%s: no reader", r.ID)
		}
		if r.Scenario != "validation" && r.Scenario != "consolidation" && r.Scenario != "multimaster" {
			t.Errorf("%s: unknown scenario %q", r.ID, r.Scenario)
		}
		if b := r.Band; b != nil && !(r.Thesis >= b.Lo && r.Thesis <= b.Hi) {
			t.Errorf("%s: band %s excludes the thesis value %v", r.ID, b, r.Thesis)
		}
	}
}

// requireFidelity logs the evaluated rows as one table and fails on every
// banded row that is missing or out of band.
func requireFidelity(t *testing.T, title string, rows []FidelityRow) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatalf("%s: no fidelity rows", title)
	}
	t.Log("\n" + FidelityReport(title, rows).String())
	for _, r := range rows {
		if r.Failed() {
			t.Errorf("%s = %.2f (%s), want within %s (thesis %.2f)", r.ID, r.Measured, r.Verdict, r.Band, r.Thesis)
		}
	}
}
