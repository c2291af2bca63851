package main

import (
	"fmt"
	"math"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/timing"
)

// verifyTol is the constraint-violation tolerance of the schedule check, the
// same slack core.Audit allows a certified schedule.
const verifyTol = 1e-6

// design is one finished result in the form the checks need, whether it
// came from core.Run or from an ECO apply.
type design struct {
	Circuit   *netlist.Circuit
	Params    rotary.Params
	TModel    timing.Model
	FFCells   []int
	Schedule  []float64
	WorkSlack float64
	Assign    *assign.Assignment
	Rings     int
	// Relaxed allows the ring capacity the recovery ladders widen to;
	// set when the run recorded recovery events.
	Relaxed bool
	// CountCapacity enforces the per-ring flip-flop limit of the min-cost
	// assigners; the min-max-capacitance ILP has none.
	CountCapacity bool
	// Unlegalized exempts the placement from the legality check. ECO
	// edits hold a moved flip-flop where the edit put it and re-settle its
	// neighbours by a quadratic solve without legalizing, so their
	// overlap is measured and reported by the caller instead.
	Unlegalized bool
}

// checkDesign re-verifies a finished design from outside the flow:
//
//  1. the placement is legal: no two movable cells overlap (unless the
//     design is marked Unlegalized);
//  2. timing.Analyze re-run on the final placement gives constraints, at
//     the reported working slack, that the schedule satisfies;
//  3. every flip-flop is assigned to an existing ring; each ring's load
//     capacitance, recomputed from the taps, matches the recorded loads
//     and maximum; and where the assigner enforces a per-ring flip-flop
//     capacity (network flow, the ECO patch), no ring exceeds it.
func checkDesign(d design) error {
	if err := d.Circuit.Validate(); err != nil {
		return fmt.Errorf("invalid circuit: %w", err)
	}
	if !d.Unlegalized {
		if ov := placer.MaxOverlap(d.Circuit); ov != 0 {
			return fmt.Errorf("placement is not legal: overlap area %g", ov)
		}
	}

	n := len(d.FFCells)
	if len(d.Schedule) != n {
		return fmt.Errorf("%d flip-flops but %d schedule entries", n, len(d.Schedule))
	}
	for i, t := range d.Schedule {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("schedule entry %d is %v", i, t)
		}
	}
	ffIdx := make(map[int]int, n)
	for i, id := range d.FFCells {
		ffIdx[id] = i
	}
	pairs, err := seqPairs(d.Circuit, d.TModel, ffIdx)
	if err != nil {
		return fmt.Errorf("final placement: %w", err)
	}
	cons := skew.Constraints(pairs, d.Params.Period, d.WorkSlack, d.TModel.TSetup, d.TModel.THold)
	if v := skew.Verify(d.Schedule, cons); v > verifyTol {
		return fmt.Errorf("schedule violates the final placement's timing by %g ps at slack %g ps", v, d.WorkSlack)
	}

	a := d.Assign
	if a == nil || len(a.Ring) != n || len(a.Taps) != n {
		return fmt.Errorf("assignment does not cover all %d flip-flops", n)
	}
	if d.Rings <= 0 {
		return fmt.Errorf("no rings")
	}
	count := make([]int, d.Rings)
	for i, r := range a.Ring {
		if r < 0 || r >= d.Rings {
			return fmt.Errorf("flip-flop %d assigned to ring %d of %d", i, r, d.Rings)
		}
		count[r]++
	}
	if d.CountCapacity {
		limit := ringCapacity(n, d.Rings, d.Relaxed)
		for r, k := range count {
			if k > limit {
				return fmt.Errorf("ring %d holds %d flip-flops, capacity %d", r, k, limit)
			}
		}
	}
	if len(a.Loads) != d.Rings {
		return fmt.Errorf("%d ring loads for %d rings", len(a.Loads), d.Rings)
	}
	loads := make([]float64, d.Rings)
	for i, tap := range a.Taps {
		loads[a.Ring[i]] += d.Params.StubCap(tap.WireLen)
	}
	maxCap := 0.0
	for r, l := range loads {
		if !closeTo(l, a.Loads[r]) {
			return fmt.Errorf("ring %d load %g fF, recorded %g fF", r, l, a.Loads[r])
		}
		maxCap = math.Max(maxCap, l)
	}
	if !closeTo(maxCap, a.MaxCap) {
		return fmt.Errorf("max ring load %g fF, recorded %g fF", maxCap, a.MaxCap)
	}
	return nil
}

// seqPairs runs timing.Analyze and maps each sequential pair's cells to
// flip-flop indices.
func seqPairs(c *netlist.Circuit, tm timing.Model, ffIdx map[int]int) ([]skew.SeqPair, error) {
	sta, err := timing.Analyze(c, tm)
	if err != nil {
		return nil, fmt.Errorf("timing analysis: %w", err)
	}
	pairs := make([]skew.SeqPair, 0, len(sta.Pairs))
	for _, p := range sta.Pairs {
		u, okU := ffIdx[p.From]
		v, okV := ffIdx[p.To]
		if !okU || !okV {
			return nil, fmt.Errorf("timing pair %d->%d names a cell outside the flip-flop list", p.From, p.To)
		}
		pairs = append(pairs, skew.SeqPair{U: u, V: v, DMax: p.DMax, DMin: p.DMin})
	}
	return pairs, nil
}

// ringCapacity is the per-ring flip-flop limit the assigners enforce: the
// default 1.25x headroom of assign.Problem, or the widest step (x2.25) of
// the flow's assignment recovery ladder when relaxation was allowed.
func ringCapacity(ffs, rings int, relaxed bool) int {
	base := (ffs*5/4)/rings + 1
	if relaxed {
		return int(math.Ceil(float64(base) * 2.25))
	}
	return base
}

// flowDesign views a core.Run result as a design.
func flowDesign(c *netlist.Circuit, cfg core.Config, res *core.Result) design {
	return design{
		Circuit:   c,
		Params:    cfg.Params,
		TModel:    cfg.TModel,
		FFCells:   res.FFCells,
		Schedule:  res.Schedule,
		WorkSlack: res.WorkSlack,
		Assign:    res.Assign,
		Rings:     len(res.Array.Rings),
		Relaxed:   len(res.Events) > 0,

		CountCapacity: cfg.Assigner == core.NetworkFlow,
	}
}

// checkFlow checks one core.Run outcome: the call succeeded without
// degrading, and the design passes checkDesign.
func checkFlow(c *netlist.Circuit, cfg core.Config, res *core.Result, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("flow failed: %w", runErr)
	}
	if res == nil {
		return fmt.Errorf("flow returned no result")
	}
	if res.Degraded {
		return fmt.Errorf("flow degraded: %v", res.Events)
	}
	if res.Array == nil {
		return fmt.Errorf("flow built no ring array")
	}
	return checkDesign(flowDesign(c, cfg, res))
}
