package core

import (
	"fmt"
	"math"

	"rotaryclk/internal/netlist"
)

// RingSweepPoint is one candidate ring count with its converged metrics.
type RingSweepPoint struct {
	Rings  int
	Final  Metrics
	Result *Result
}

// AutoRings implements the second future-work item of the paper's Section
// IX: treating the number of rotary rings as an optimization variable. It
// runs the full flow for each candidate ring count on a fresh copy of the
// circuit (gen must return an identical circuit each call) and returns the
// count minimizing the flow's overall cost — the stage-5 weighted sum of
// tapping and signal wirelength for the network-flow assigner, or the
// wirelength-capacitance product for the ILP assigner (whose objective is
// frequency, eq. 2).
func AutoRings(gen func() (*netlist.Circuit, error), cfg Config, counts []int) (int, []RingSweepPoint, error) {
	if len(counts) == 0 {
		counts = []int{4, 9, 16, 25, 36, 49}
	}
	cfg.normalize()
	bestCount, bestScore := 0, math.Inf(1)
	var points []RingSweepPoint
	for _, r := range counts {
		if r <= 0 {
			return 0, nil, fmt.Errorf("core: ring count %d invalid", r)
		}
		c, err := gen()
		if err != nil {
			return 0, nil, err
		}
		runCfg := cfg
		runCfg.NumRings = r
		res, err := Run(c, runCfg)
		if err != nil {
			return 0, nil, fmt.Errorf("core: ring sweep at %d rings: %w", r, err)
		}
		points = append(points, RingSweepPoint{Rings: r, Final: res.Final, Result: res})
		if s := cost(cfg, res.Final); s < bestScore {
			bestScore, bestCount = s, r
		}
	}
	return bestCount, points, nil
}
