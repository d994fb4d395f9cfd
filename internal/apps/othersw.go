package apps

import "repro/internal/cascade"

// VISFileMB is the payload moved by VIS OPEN/SAVE — §6.3.2: "the volume of
// the data manipulated during file opening and saving is considerably
// smaller" than CAD.
const VISFileMB = 250

// VISOps returns the Visualization application: the same eight operations
// as CAD (§6.3.2) with lighter payloads and lighter server work —
// visualization serves derived, pre-tessellated models. The CAD operations
// are built for it alone, so their costs are halved where they lie: once
// per stored message, skipping the copies of a split step, which share the
// messages of the step before them.
func VISOps() []cascade.Op {
	ops := CADOps(VISFileMB)
	for _, op := range ops {
		for si, step := range op.Steps {
			if si > 0 && &step[0] == &op.Steps[si-1][0] {
				continue
			}
			for mi := range step {
				c := &step[mi].Cost
				c.CPUCycles *= 0.5
				c.MemBytes *= 0.5
				c.NetBytes *= 0.5
			}
		}
	}
	return ops
}

// pdmRoundTrips builds the repeated app<->db transaction block of PDM
// operations, packed.
func pdmRoundTrips(name string, trips int, dbSec, appSec float64, rowBytes float64, diskMB float64) cascade.Op {
	n := 2*trips + 2
	p := cascade.Pack(name, n, n)
	p.Step(1)[0] = msg(eC, eApp, cascade.R{CPUCycles: cyc(appSec), NetBytes: 20e3, MemBytes: 50 * mb})
	for i := 0; i < trips; i++ {
		p.Step(1)[0] = msg(eApp, eDB, cascade.R{CPUCycles: cyc(dbSec), NetBytes: 15e3, DiskBytes: diskMB * mb})
		p.Step(1)[0] = msg(eDB, eApp, cascade.R{CPUCycles: cyc(appSec / 2), NetBytes: rowBytes})
	}
	p.Step(1)[0] = msg(eApp, eC, cascade.R{NetBytes: 120e3, CPUCycles: cyc(0.4)})
	return p.Op()
}

// PDMOps returns the Product Data Management application (§6.3.2):
// database-transaction sequences between clients, the application tier and
// the database tier — "long sequences of interactions between clients C and
// Tdb via Tapp. No other tiers are involved" (§6.4.2).
func PDMOps() []cascade.Op {
	return []cascade.Op{
		pdmRoundTrips("BILL-OF-MATERIALS", 6, 0.5, 0.3, 150e3, 10),
		pdmRoundTrips("EXPAND", 4, 0.35, 0.25, 100e3, 5),
		pdmRoundTrips("PROMOTE", 3, 0.6, 0.3, 100e3, 15),
		pdmRoundTrips("UPDATE", 2, 0.5, 0.25, 80e3, 12),
		pdmRoundTrips("EDIT", 2, 0.4, 0.3, 120e3, 8),
		// DOWNLOAD and EXPORT move report payloads to the client.
		cascade.Seq("DOWNLOAD",
			msg(eC, eApp, cascade.R{CPUCycles: cyc(0.5), NetBytes: 20e3}),
			msg(eApp, eDB, cascade.R{CPUCycles: cyc(0.8), NetBytes: 15e3, DiskBytes: 60 * mb}),
			msg(eDB, eApp, cascade.R{CPUCycles: cyc(0.4), NetBytes: 3 * mb}),
			msg(eApp, eC, cascade.R{NetBytes: 3 * mb}),
		),
		cascade.Seq("EXPORT",
			msg(eC, eApp, cascade.R{CPUCycles: cyc(0.8), NetBytes: 20e3, MemBytes: 200 * mb}),
			msg(eApp, eDB, cascade.R{CPUCycles: cyc(1.2), NetBytes: 15e3, DiskBytes: 100 * mb}),
			msg(eDB, eApp, cascade.R{CPUCycles: cyc(0.8), NetBytes: 5 * mb}),
			msg(eApp, eC, cascade.R{NetBytes: 5 * mb, CPUCycles: cyc(1.0)}),
		),
	}
}
