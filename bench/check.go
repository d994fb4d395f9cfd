package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// histories resolves the scenario seed the simulator receives for each
// history of one run of one workload. A single arrival history moves bytes
// per operation by ~2.5% and wall-clock by ~7% from seed to seed (IQR over
// median, 48 seeds of peak_hour), more than the bounds the metrics are held
// to, and the benchmark's steadiness is judged over runs with different -seed
// values. A run therefore measures the workload over size.histories
// independent histories derived from its -seed, so its numbers estimate the
// workload and not one draw. Iteration i simulates history i mod
// size.histories.
//
// skipped[h] counts the candidates given up for history h because the
// simulator panicked on them (see errPanicked): the next candidate takes its
// place, so the same -seed still gives the same inputs.
type histories struct {
	seed    uint64
	skipped []int
}

func newHistories(seed uint64, n int) *histories {
	return &histories{seed: seed, skipped: make([]int, n)}
}

func (h *histories) seedOf(history int) uint64 {
	return core.DeriveSeed(h.seed, uint64(history+h.skipped[history]*len(h.skipped)))
}

// goldenFile maps "<size>/<workload>/<seed>/<history>" to the expected
// fingerprint. peak_hour_sharded's entries are taken on the sequential
// engine (shardedReference), which is the engine-equivalence contract.
type goldenFile map[string]string

//go:embed golden.json
var goldenJSON []byte

// goldenSeeds are the seeds golden.json pins; any other seed is checked for
// repeatability against the first time each history ran.
var goldenSeeds = []uint64{7, 11}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return g, nil
}

func goldenKey(sz size, workload string, seed uint64, history int) string {
	return fmt.Sprintf("%s/%s/%d/%d", sz.name, workload, seed, history)
}

// checker holds what every iteration's fingerprint is compared with.
type checker struct {
	w    workload
	cfg  runConfig
	want []string // by history; empty until known
	// pinned: want came from golden.json. Otherwise reference names what
	// prepare took history 0 from, and the other histories are held to their
	// own first run.
	pinned    bool
	reference string
}

func newChecker(w workload, cfg runConfig) *checker {
	c := &checker{w: w, cfg: cfg, want: make([]string, cfg.sz.histories)}
	_, c.pinned = cfg.golden[goldenKey(cfg.sz, w.name, cfg.seed, 0)]
	if c.pinned {
		for h := range c.want {
			c.want[h] = cfg.golden[goldenKey(cfg.sz, w.name, cfg.seed, h)]
		}
	}
	return c
}

// prepare resolves, before the measurement loop and untimed, the reference
// the contract names for an unpinned seed: the sequential engine for the
// sharded workload, the one-worker sweep for the campaign. History 0 stands
// for the rest.
func (c *checker) prepare() error {
	if c.pinned {
		return nil
	}
	ref, v := c.w, untraced
	switch c.w.name {
	case "peak_hour_sharded":
		ref, c.reference = shardedReference(), "the sequential engine"
	case "campaign":
		v, c.reference = serial, "the one-worker sweep"
	default:
		return nil
	}
	s, err := runIteration(ref, c.cfg, v, 0, nil)
	if err != nil {
		return err
	}
	if s.out.failed > 0 {
		return fmt.Errorf("%d of %d points failed", s.out.failed, s.out.attempted)
	}
	c.want[0] = s.out.digest
	return nil
}

func (c *checker) check(history int, o outcome) error {
	if c.want[history] == "" && !c.pinned {
		c.want[history] = o.digest
	}
	if o.digest != c.want[history] {
		source := "this history's first run"
		switch {
		case c.pinned:
			source = "golden.json"
		case history == 0 && c.reference != "":
			source = c.reference
		}
		return fmt.Errorf("history %d: fingerprint %.12s differs from %s (%.12s)",
			history, o.digest, source, c.want[history])
	}
	return nil
}

// updateGolden regenerates bench/golden.json: one iteration per history of
// every workload, at both sizes, for the pinned seeds.
func updateGolden(root string) error {
	g := goldenFile{}
	for _, sz := range []size{fullSize, smokeSize} {
		for _, w := range workloads() {
			ref := w
			if w.name == "peak_hour_sharded" {
				ref = shardedReference()
			}
			for _, seed := range goldenSeeds {
				cfg := runConfig{root: root, seed: seed, sz: sz, hist: newHistories(seed, sz.histories)}
				for h := 0; h < sz.histories; h++ {
					s, err := runIteration(ref, cfg, untraced, h, nil)
					if err != nil {
						return fmt.Errorf("%s seed %d history %d: %w", w.name, seed, h, err)
					}
					g[goldenKey(sz, w.name, seed, h)] = s.out.digest
				}
			}
		}
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "golden.json"), append(raw, '\n'), 0o644)
}
