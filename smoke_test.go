// Compile-and-run smoke tests for the examples and the gdisim CLI, so the
// user-facing entry points cannot rot silently: every binary is built with
// the current module and the fast ones are executed end to end (the CLI's
// scenario reports via its -short flag).
package gdisim

import (
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// buildPackages compiles the given package paths into dir and returns the
// binary paths keyed by package name.
func buildPackages(t *testing.T, dir string, pkgs []string) map[string]string {
	t.Helper()
	bins := make(map[string]string, len(pkgs))
	for _, pkg := range pkgs {
		name := pkg[strings.LastIndex(pkg, "/")+1:]
		bin := dir + "/" + name
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		bins[name] = bin
	}
	return bins
}

// runBinary executes a built binary with args and a generous timeout,
// failing the test on a non-zero exit.
func runBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

// TestExamplesSmoke compiles every example and runs the quickstart end to
// end, checking it reaches its final report line.
func TestExamplesSmoke(t *testing.T) {
	dir := t.TempDir()
	bins := buildPackages(t, dir, []string{
		"./examples/quickstart",
		"./examples/bottleneck",
		"./examples/capacity",
		"./examples/whatif",
		"./examples/partition",
	})
	out := runBinary(t, bins["quickstart"])
	for _, want := range []string{"isolated REPORT duration", "app tier CPU", "completions"} {
		if !strings.Contains(out, want) {
			t.Errorf("quickstart output missing %q:\n%s", want, out)
		}
	}
	// The partition example is the flagship chaos scenario; it must print
	// the fault report and the backlog-drain curve.
	out = runBinary(t, bins["partition"])
	for _, want := range []string{"fault report", "time-to-reroute", "backlog-drain curve"} {
		if !strings.Contains(out, want) {
			t.Errorf("partition output missing %q:\n%s", want, out)
		}
	}
	if testing.Short() {
		return
	}
	// The whatif example is the 12-point sweep over the experiment API; it
	// must print every grid row.
	out = runBinary(t, bins["whatif"])
	if !strings.Contains(out, "12-point sweep") {
		t.Errorf("whatif output missing the sweep banner:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got < 15 {
		t.Errorf("whatif printed %d lines, expected the full grid:\n%s", got, out)
	}
}

// TestCommandsSmoke compiles the gdisim CLI and runs each of its modes,
// the scenario reproductions at -short, checking the headline artifact of
// each report appears. A subtest is named after the report it smokes.
func TestCommandsSmoke(t *testing.T) {
	bin := buildPackages(t, t.TempDir(), []string{"./cmd/gdisim"})["gdisim"]
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"validate", []string{"-scenario", "validation", "-short"}, "Table 5.2"},
		{"consolidate", []string{"-scenario", "consolidation", "-short"}, "Table 6.1"},
		{"multimaster", []string{"-scenario", "multimaster", "-short"}, "Table 7.3"},
		{"gdisim", []string{"-short"}, "speedup"},
		{"gdisim", []string{"-doc", "examples/scenario.json"}, "operations completed"},
		{"gdisim", []string{"-doc", "examples/chaos.json"}, "fault report"},
		{"gdisim", []string{"-doc", "examples/scenario.json",
			"-sweep", "dcs.NA.app.cores=4,8", "-workers", "2"}, "Sweep over"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out := runBinary(t, bin, tc.args...)
			if !strings.Contains(out, tc.want) {
				t.Errorf("gdisim %v output missing %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}
