package core

// RunCheckingSets exports runCheckingSets to the package's external tests.
func RunCheckingSets(s *Simulation, d float64) error { return runCheckingSets(s, d) }
