package experiments

import (
	"rooftune/internal/core"
	"rooftune/internal/units"
)

func bwOf(run *TriadRun, sockets int, region TriadRegion) units.Bandwidth {
	return units.GBps(run.Peak(sockets, region))
}

func flopsOf(res *core.Result) units.Flops {
	return units.Flops(res.BestValue())
}

// flopsFromBandwidth places the TRIAD point on the roofline: at I = 1/12,
// attainable performance is B * I (memory-bound).
func flopsFromBandwidth(b units.Bandwidth) units.Flops {
	return units.Flops(float64(b) / 12)
}

func dgemmIntensity(d core.Dims) units.Intensity {
	return units.DGEMMIntensity(d.N, d.M, d.K)
}
