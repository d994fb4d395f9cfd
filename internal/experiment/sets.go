package experiment

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/cascade"
	"repro/internal/topology"
)

// The operation sets a workload names (Workload.Set, the document's "ops"):
// VIS and PDM are infrastructure-independent, so one catalog of each serves
// every run of the process; CAD is calibrated against the built platform at
// a home data center, once per run and home. Nothing writes into a catalog
// once it is built: launchers, program tables and the fluid station only
// read operations, and calibration copies what it changes.
var (
	visCatalog = sync.OnceValue(apps.VISOps)
	pdmCatalog = sync.OnceValue(apps.PDMOps)
)

// setName resolves the operation set w launches to the name a run shares
// its catalog by — "VIS", "PDM" or "CAD@<home>" — and returns the home data
// center a CAD set is calibrated at ("" for VIS and PDM). An empty Set
// names the set after App, and a bare "CAD" calibrates at w's own DC; setName
// is the one reader of the "<set>@<dc>" form.
func (w *Workload) setName() (name, home string, err error) {
	set := w.Set
	if set == "" {
		set = w.App
	}
	base, home, at := strings.Cut(set, "@")
	switch base {
	case "CAD":
		if !at {
			home = w.DC
		} else if home == "" {
			return "", "", fmt.Errorf("operation set %q names no DC after the @", set)
		}
		return "CAD@" + home, home, nil
	case "VIS", "PDM":
		if at {
			return "", "", fmt.Errorf("operation set %q: %s does not depend on the platform and takes no @<dc>", set, base)
		}
		return base, "", nil
	}
	return "", "", fmt.Errorf("unknown operation set %q (have CAD, CAD@<dc>, VIS, PDM)", set)
}

// checkSet is the gate's check of a named set: it must resolve, and a CAD
// set's home must be a data center of the spec.
func (w *Workload) checkSet(dcs map[string]bool) error {
	_, home, err := w.setName()
	if err == nil && home != "" && !dcs[home] {
		err = fmt.Errorf("operation set %q is calibrated at DC %q, which the spec lacks", w.Set, home)
	}
	return err
}

// buildSet builds the catalog of a resolved set on the built platform: CAD
// calibrated at home, or, with no home, the VIS or PDM catalog.
func buildSet(name, home string, inf *topology.Infrastructure, step float64) ([]cascade.Op, error) {
	switch {
	case home != "":
		dc := inf.DC(home)
		return apps.CalibratedCADOps(inf, dc, dc, step)
	case name == "VIS":
		return visCatalog(), nil
	}
	return pdmCatalog(), nil
}

// catalog is one operation catalog of a run and the program table its
// launchers share.
type catalog struct {
	set   string // the resolved set name; "" for declared Ops
	ops   []cascade.Op
	progs *cascade.Programs
}

// catalog returns w's operation catalog: its declared Ops, or its named set,
// built once per run and shared by every workload resolving to that name.
func (r *Run) catalog(w *Workload, step float64) (catalog, error) {
	c := catalog{ops: w.Ops}
	if c.ops == nil {
		set, home, _ := w.setName() // the gate has resolved it
		for _, o := range r.catalogs {
			if o.set == set {
				return o, nil
			}
		}
		ops, err := buildSet(set, home, r.Inf, step)
		if err != nil {
			return catalog{}, err
		}
		c.set, c.ops = set, ops
	}
	if len(c.ops) > 0 {
		c.progs = cascade.NewPrograms(c.ops)
	}
	r.catalogs = append(r.catalogs, c)
	return c, nil
}
