package experiments

import (
	"rooftune/internal/units"
)

func bwOf(run *TriadRun, sockets int, region string) units.Bandwidth {
	return units.GBps(run.Peak(sockets, region))
}

// flopsFromBandwidth places the TRIAD point on the roofline: at I = 1/12,
// attainable performance is B * I (memory-bound).
func flopsFromBandwidth(b units.Bandwidth) units.Flops {
	return units.Flops(float64(b) / 12)
}
