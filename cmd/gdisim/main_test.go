package main

import (
	"testing"

	"repro/internal/scenarios"
)

// TestRefereeRunIsTheCheck holds -scenario's exit status to its rule: on
// the referee run (no -seed, -scale, -hours or -short) a banded row that
// reads FAIL or missing exits 1; any override prints the same table as a
// comparison and exits 0, and rows without a band never fail.
func TestRefereeRunIsTheCheck(t *testing.T) {
	band := &scenarios.Band{Lo: 0, Hi: 1}
	row := func(b *scenarios.Band, verdict string) []scenarios.FidelityRow {
		return []scenarios.FidelityRow{{ID: "in", Band: band, Verdict: "pass"}, {ID: "row", Band: b, Verdict: verdict}}
	}
	for _, tc := range []struct {
		rows []scenarios.FidelityRow
		set  string
		want int
	}{
		{row(band, "pass"), "", 0},
		{row(band, "FAIL"), "", 1},
		{row(band, "missing"), "", 1},
		{row(band, "FAIL"), "v", 1},
		{row(nil, "unchecked"), "", 0},
		{row(nil, "missing"), "", 0},
		{row(band, "FAIL"), "seed", 0},
		{row(band, "FAIL"), "scale", 0},
		{row(band, "missing"), "hours", 0},
		{row(band, "FAIL"), "short", 0},
	} {
		set := map[string]bool{tc.set: tc.set != ""}
		if got := reproduce("test run", tc.rows, set); got != tc.want {
			t.Errorf("row %s with -%s set: exit status %d, want %d", tc.rows[1].Verdict, tc.set, got, tc.want)
		}
	}
}
