package apps

// The catalog builders as they were before operations were packed: every
// step its own slice, appended step by step. They are the oracle the packed
// catalogs are checked against (catalog_test.go), value for value.

import "repro/internal/cascade"

// oracleSeq is cascade.Seq, appended step by step.
func oracleSeq(name string, msgs ...cascade.Msg) cascade.Op {
	op := cascade.Op{Name: name}
	for _, m := range msgs {
		op.Steps = append(op.Steps, []cascade.Msg{m})
	}
	return op
}

// oracleScale is Op.Scale, one slice per step.
func oracleScale(op cascade.Op, name string, f float64) cascade.Op {
	scaled := cascade.Op{Name: name, Steps: make([][]cascade.Msg, len(op.Steps))}
	for i, step := range op.Steps {
		scaled.Steps[i] = make([]cascade.Msg, len(step))
		for j, m := range step {
			m.Cost = m.Cost.Scale(f)
			scaled.Steps[i][j] = m
		}
	}
	return scaled
}

// oracleFan is fan: a parallel batch of FanOut identical messages.
func oracleFan(from, to cascade.End, c cascade.R) []cascade.Msg {
	batch := make([]cascade.Msg, FanOut)
	for i := range batch {
		batch[i] = msg(from, to, c)
	}
	return batch
}

// oracleFanChunks is fanChunks: n sequential fan-out steps, the cost
// divided evenly.
func oracleFanChunks(from, to cascade.End, c cascade.R, n int) [][]cascade.Msg {
	chunk := c.Scale(1 / float64(n))
	steps := make([][]cascade.Msg, n)
	for i := range steps {
		steps[i] = oracleFan(from, to, chunk)
	}
	return steps
}

// oracleSingle is single: one message as a step.
func oracleSingle(from, to cascade.End, c cascade.R) []cascade.Msg {
	return []cascade.Msg{msg(from, to, c)}
}

// oracleCADOps is CADOps, each operation appended step by step.
func oracleCADOps(fileMB float64) []cascade.Op {
	fileBytes := fileMB * mb
	stripe := fileBytes / FanOut

	login := cascade.Op{Name: "LOGIN", Steps: [][]cascade.Msg{
		oracleFan(eC, eApp, cascade.R{CPUCycles: cyc(1.2), NetBytes: 8e3, MemBytes: 5 * mb}),
		oracleFan(eApp, eDB, cascade.R{CPUCycles: cyc(0.5), NetBytes: 10e3}),
		oracleSingle(eDB, eApp, cascade.R{NetBytes: 50e3}),
		oracleSingle(eApp, eC, cascade.R{NetBytes: 100e3}),
	}}

	textSearch := cascade.Op{Name: "TEXT-SEARCH"}
	// Query against the text index previously created by Tidx and hosted
	// by Tapp (§5.2.2), hence the app-side disk reads.
	textSearch.Steps = append(textSearch.Steps,
		oracleFanChunks(eC, eApp, cascade.R{CPUCycles: cyc(1.9), NetBytes: 5e3, MemBytes: 50 * mb, DiskBytes: 8 * mb}, 2)...)
	textSearch.Steps = append(textSearch.Steps,
		oracleFan(eApp, eDB, cascade.R{CPUCycles: cyc(0.8), NetBytes: 10e3}))
	textSearch.Steps = append(textSearch.Steps,
		oracleFanChunks(eDB, eApp, cascade.R{CPUCycles: cyc(1.9), NetBytes: 100e3}, 2)...)
	textSearch.Steps = append(textSearch.Steps,
		oracleSingle(eApp, eC, cascade.R{NetBytes: 150e3}))

	filter := cascade.Op{Name: "FILTER", Steps: [][]cascade.Msg{
		oracleFan(eC, eApp, cascade.R{CPUCycles: cyc(0.8), NetBytes: 5e3, MemBytes: 25 * mb}),
		oracleFan(eApp, eDB, cascade.R{CPUCycles: cyc(0.4), NetBytes: 10e3}),
		oracleFan(eDB, eApp, cascade.R{CPUCycles: cyc(0.8), NetBytes: 80e3}),
		oracleSingle(eApp, eC, cascade.R{NetBytes: 80e3}),
	}}

	explore := cascade.Op{Name: "EXPLORE"}
	for i := 0; i < 5; i++ { // five round trips navigating the tree (Fig. 5-3, x12)
		explore.Steps = append(explore.Steps,
			oracleFan(eC, eApp, cascade.R{CPUCycles: cyc(0.4), NetBytes: 4e3}),
			oracleFan(eApp, eDB, cascade.R{CPUCycles: cyc(0.5), NetBytes: 20e3, DiskBytes: 2 * mb}),
			oracleSingle(eApp, eC, cascade.R{NetBytes: 60e3}),
		)
	}

	spatial := cascade.Op{Name: "SPATIAL-SEARCH", Steps: [][]cascade.Msg{
		oracleFan(eC, eApp, cascade.R{CPUCycles: cyc(0.5), NetBytes: 5e3}),
		oracleFan(eApp, eDB, cascade.R{CPUCycles: cyc(0.8), NetBytes: 20e3}),
		oracleFan(eDB, eApp, cascade.R{CPUCycles: cyc(0.4), NetBytes: 100e3}),
		oracleFan(eC, eApp, cascade.R{CPUCycles: cyc(1.2), NetBytes: 10e3, MemBytes: 125 * mb}),
		oracleSingle(eApp, eC, cascade.R{NetBytes: 200e3}),
	}}
	for i := 0; i < 5; i++ { // navigating the 3D snapshot served by Tidx (Fig. 5-4, x10)
		spatial.Steps = append(spatial.Steps,
			oracleFan(eC, eIdx, cascade.R{CPUCycles: cyc(0.742), NetBytes: 20e3, MemBytes: 125 * mb, DiskBytes: 5 * mb}),
			oracleSingle(eIdx, eC, cascade.R{NetBytes: 250e3}),
		)
	}

	sel := cascade.Op{Name: "SELECT"}
	for i := 0; i < 3; i++ { // three spatial-area queries (Fig. 5-4, x4)
		sel.Steps = append(sel.Steps,
			oracleFan(eC, eApp, cascade.R{CPUCycles: cyc(0.25), NetBytes: 5e3}),
			oracleFan(eApp, eDB, cascade.R{CPUCycles: cyc(0.85), NetBytes: 30e3, DiskBytes: 5 * mb}),
			oracleFan(eDB, eApp, cascade.R{CPUCycles: cyc(0.25), NetBytes: 200e3}),
			oracleSingle(eApp, eC, cascade.R{NetBytes: 80e3}),
		)
	}

	open := cascade.Op{Name: "OPEN"}
	// Token segment (Fig. 3-12, segment 1): version check at the master,
	// then the download token returns to the client.
	open.Steps = append(open.Steps,
		oracleFan(eC, eApp, cascade.R{CPUCycles: cyc(1.15), NetBytes: 6e3, MemBytes: 75 * mb}))
	open.Steps = append(open.Steps,
		oracleFanChunks(eApp, eDB, cascade.R{CPUCycles: cyc(3.05), NetBytes: 20e3, DiskBytes: 8 * mb}, 3)...)
	open.Steps = append(open.Steps,
		oracleFanChunks(eDB, eApp, cascade.R{CPUCycles: cyc(3.45), NetBytes: 60e3}, 3)...)
	open.Steps = append(open.Steps,
		oracleSingle(eApp, eC, cascade.R{NetBytes: 60e3}))
	// Download segment (segment 2): the local file servers read the
	// striped payload from storage, then stream it to the client.
	open.Steps = append(open.Steps,
		oracleFanChunks(eC, eFS, cascade.R{CPUCycles: cyc(3.2), NetBytes: 30e3, MemBytes: 250 * mb, DiskBytes: stripe}, 3)...)
	open.Steps = append(open.Steps,
		oracleSingle(eFS, eC, cascade.R{NetBytes: fileBytes, DiskBytes: fileBytes}))

	save := cascade.Op{Name: "SAVE"}
	// Write grant: version registration at the master database.
	save.Steps = append(save.Steps,
		oracleFan(eC, eApp, cascade.R{CPUCycles: cyc(1.0), NetBytes: 8e3, MemBytes: 75 * mb}))
	save.Steps = append(save.Steps,
		oracleFanChunks(eApp, eDB, cascade.R{CPUCycles: cyc(3.6), NetBytes: 30e3, DiskBytes: 10 * mb}, 3)...)
	save.Steps = append(save.Steps,
		oracleFanChunks(eDB, eApp, cascade.R{CPUCycles: cyc(2.86), NetBytes: 60e3}, 3)...)
	save.Steps = append(save.Steps,
		oracleSingle(eApp, eC, cascade.R{NetBytes: 100e3}))
	// Upload: the client streams the payload to its local file server,
	// which writes the stripes through to storage.
	save.Steps = append(save.Steps,
		oracleSingle(eC, eFS, cascade.R{NetBytes: fileBytes, MemBytes: 375 * mb}))
	save.Steps = append(save.Steps,
		oracleFanChunks(eC, eFS, cascade.R{CPUCycles: cyc(4.0), NetBytes: 20e3, DiskBytes: stripe}, 4)...)
	save.Steps = append(save.Steps,
		oracleSingle(eFS, eC, cascade.R{NetBytes: 50e3}))
	// Flag the new version for the index-build process (§6.3.2).
	save.Steps = append(save.Steps,
		oracleFan(eC, eIdx, cascade.R{CPUCycles: cyc(0.5), NetBytes: 30e3}))
	save.Steps = append(save.Steps,
		oracleSingle(eIdx, eC, cascade.R{NetBytes: 10e3}))

	ops := []cascade.Op{login, textSearch, filter, explore, spatial, sel, open, save}
	for i := range ops {
		ops[i] = oracleChunkHeavySteps(ops[i], maxTaskSec)
	}
	return ops
}

// oracleChunkHeavySteps is ChunkHeavySteps, its copies of a split step
// sharing one slice and its unsplit steps shared with op.
func oracleChunkHeavySteps(op cascade.Op, maxSec float64) cascade.Op {
	out := cascade.Op{Name: op.Name}
	for _, step := range op.Steps {
		maxCPU := 0.0
		for _, m := range step {
			if s := m.Cost.CPUCycles / (ServerGHz * 1e9); s > maxCPU {
				maxCPU = s
			}
		}
		n := 1
		if maxCPU > maxSec {
			n = int(maxCPU/maxSec) + 1
		}
		if n == 1 {
			out.Steps = append(out.Steps, step)
			continue
		}
		chunk := make([]cascade.Msg, len(step))
		for i, m := range step {
			m.Cost = m.Cost.Scale(1 / float64(n))
			chunk[i] = m
		}
		for i := 0; i < n; i++ {
			out.Steps = append(out.Steps, chunk)
		}
	}
	return out
}

// oracleVISOps is VISOps: a deep copy of each CAD operation, halved.
func oracleVISOps() []cascade.Op {
	ops := oracleCADOps(VISFileMB)
	out := make([]cascade.Op, len(ops))
	for i, op := range ops {
		scaled := oracleScale(op, op.Name, 1) // deep copy
		for si := range scaled.Steps {
			for mi := range scaled.Steps[si] {
				c := &scaled.Steps[si][mi].Cost
				c.CPUCycles *= 0.5
				c.MemBytes *= 0.5
				c.NetBytes *= 0.5
			}
		}
		out[i] = scaled
	}
	return out
}

// oraclePDMRoundTrips is pdmRoundTrips, appended step by step.
func oraclePDMRoundTrips(name string, trips int, dbSec, appSec float64, rowBytes float64, diskMB float64) cascade.Op {
	op := cascade.Op{Name: name}
	op.Steps = append(op.Steps,
		[]cascade.Msg{msg(eC, eApp, cascade.R{CPUCycles: cyc(appSec), NetBytes: 20e3, MemBytes: 50 * mb})},
	)
	for i := 0; i < trips; i++ {
		op.Steps = append(op.Steps,
			[]cascade.Msg{msg(eApp, eDB, cascade.R{CPUCycles: cyc(dbSec), NetBytes: 15e3, DiskBytes: diskMB * mb})},
			[]cascade.Msg{msg(eDB, eApp, cascade.R{CPUCycles: cyc(appSec / 2), NetBytes: rowBytes})},
		)
	}
	op.Steps = append(op.Steps,
		[]cascade.Msg{msg(eApp, eC, cascade.R{NetBytes: 120e3, CPUCycles: cyc(0.4)})},
	)
	return op
}

// oraclePDMOps is PDMOps over the oracle builders.
func oraclePDMOps() []cascade.Op {
	return []cascade.Op{
		oraclePDMRoundTrips("BILL-OF-MATERIALS", 6, 0.5, 0.3, 150e3, 10),
		oraclePDMRoundTrips("EXPAND", 4, 0.35, 0.25, 100e3, 5),
		oraclePDMRoundTrips("PROMOTE", 3, 0.6, 0.3, 100e3, 15),
		oraclePDMRoundTrips("UPDATE", 2, 0.5, 0.25, 80e3, 12),
		oraclePDMRoundTrips("EDIT", 2, 0.4, 0.3, 120e3, 8),
		// DOWNLOAD and EXPORT move report payloads to the client.
		oracleSeq("DOWNLOAD",
			msg(eC, eApp, cascade.R{CPUCycles: cyc(0.5), NetBytes: 20e3}),
			msg(eApp, eDB, cascade.R{CPUCycles: cyc(0.8), NetBytes: 15e3, DiskBytes: 60 * mb}),
			msg(eDB, eApp, cascade.R{CPUCycles: cyc(0.4), NetBytes: 3 * mb}),
			msg(eApp, eC, cascade.R{NetBytes: 3 * mb}),
		),
		oracleSeq("EXPORT",
			msg(eC, eApp, cascade.R{CPUCycles: cyc(0.8), NetBytes: 20e3, MemBytes: 200 * mb}),
			msg(eApp, eDB, cascade.R{CPUCycles: cyc(1.2), NetBytes: 15e3, DiskBytes: 100 * mb}),
			msg(eDB, eApp, cascade.R{CPUCycles: cyc(0.8), NetBytes: 5 * mb}),
			msg(eApp, eC, cascade.R{NetBytes: 5 * mb, CPUCycles: cyc(1.0)}),
		),
	}
}

// The oracle, for the external catalog test.
var (
	OracleCADOps = oracleCADOps
	OracleVISOps = oracleVISOps
	OraclePDMOps = oraclePDMOps
)
