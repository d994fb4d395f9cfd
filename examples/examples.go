// Package examples embeds the scenario documents that define the thesis'
// case studies, so the program loads the same bytes `gdisim -doc` reads
// from this directory.
//
// consolidation.json is the Chapter 6 platform and multimaster.json the
// Chapter 7 one, each at scale 1 over the referee's 11-17 h GMT window at
// seed 3 and a 10 ms step. scenarios.NewConsolidation and NewMultiMaster
// load them, set the run's seed, step and window, and scale them.
package examples

import _ "embed"

// Consolidation is examples/consolidation.json.
//
//go:embed consolidation.json
var Consolidation []byte

// MultiMaster is examples/multimaster.json.
//
//go:embed multimaster.json
var MultiMaster []byte
