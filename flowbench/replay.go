package main

import (
	"fmt"
	"math"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
)

// replayLayers calls each layer's public entry point once, in flow order, on
// c (a fresh, unplaced copy of a workload circuit), each call under a span
// the benchmark owns: initial placement, timing and max-slack skew, one
// assignment and cost-driven schedule, and one pseudo-net re-place. The
// layers themselves run with telemetry off. Durations and sizes are added
// to acc.
func replayLayers(c *netlist.Circuit, cfg core.Config, acc layerAcc) error {
	reg := obs.NewRegistry()
	root := reg.StartSpan("replay", obs.S("circuit", c.Name))
	defer root.End()
	step := func(name string, f func() error) error {
		sp := root.Child(name)
		err := f()
		sp.End()
		if err != nil {
			return fmt.Errorf("replay %s on %s: %w", name, c.Name, err)
		}
		return nil
	}
	popt := placer.Options{Parallelism: cfg.Parallelism}

	var sys *placer.System
	if err := step("placer.newsystem", func() (err error) {
		sys, err = placer.NewSystem(c, nil)
		return err
	}); err != nil {
		return err
	}
	gopt := popt
	gopt.Multilevel = cfg.Multilevel
	if err := step("placer.global", func() error { return sys.Global(gopt) }); err != nil {
		return err
	}
	if err := step("placer.legalize", func() error { return placer.Legalize(c) }); err != nil {
		return err
	}
	if err := step("placer.detailed", func() error {
		_, err := placer.Detailed(c, 2)
		return err
	}); err != nil {
		return err
	}

	ffs := c.FlipFlops()
	n := len(ffs)
	ffIdx := make(map[int]int, n)
	for i, id := range ffs {
		ffIdx[id] = i
	}
	var pairs []skew.SeqPair
	if err := step("timing.analyze", func() error {
		var err error
		pairs, err = seqPairs(c, cfg.TModel, ffIdx)
		return err
	}); err != nil {
		return err
	}
	T, setup, hold := cfg.Params.Period, cfg.TModel.TSetup, cfg.TModel.THold
	var maxSlack float64
	var sched []float64
	if err := step("skew.maxslack", func() (err error) {
		maxSlack, sched, err = skew.MaxSlackExact(n, pairs, T, setup, hold)
		return err
	}); err != nil {
		return err
	}

	arr, err := rotary.SquareArray(c.Die, cfg.NumRings, 0.6, cfg.Params)
	if err != nil {
		return fmt.Errorf("replay ring array: %w", err)
	}
	prob := &assign.Problem{Array: arr, FFs: make([]assign.FF, n), Parallelism: cfg.Parallelism, Cache: assign.NewTapCache()}
	for i, id := range ffs {
		prob.FFs[i] = assign.FF{Cell: id, Pos: c.Cells[id].Pos, Target: sched[i]}
	}
	var asg *assign.Assignment
	if err := step("assign", func() (err error) {
		if cfg.Assigner == core.ILP {
			asg, _, err = assign.MinMaxCap(prob)
			return err
		}
		asg, err = assign.MinCost(prob)
		return err
	}); err != nil {
		return err
	}

	// The cost-driven schedule against the assigned rings, set up as the
	// flow's stage 4 does: half the max slack reserved, each flip-flop
	// anchored at its ring's nearest phase shifted next to its schedule.
	margin := maxSlack
	if margin > 0 {
		margin /= 2
	}
	cons := skew.Constraints(pairs, T, margin, setup, hold)
	anchors := make([]skew.Anchor, n)
	targets := make([]float64, n)
	weights := make([]float64, n)
	for i, id := range ffs {
		ring := arr.Rings[asg.Ring[i]]
		s, _, dist := ring.Nearest(c.Cells[id].Pos)
		a := ring.DelayAt(s, T)
		a += math.Round((sched[i]-a)/T) * T
		tci := cfg.Params.StubDelay(dist)
		anchors[i] = skew.Anchor{A: a, TCI: tci}
		targets[i] = a + tci
		weights[i] = math.Max(1, dist)
	}
	skewName := "skew.mindelta"
	if cfg.Objective == core.WeightedSum {
		skewName = "skew.weightedsum"
	}
	if err := step(skewName, func() (err error) {
		if cfg.Objective == core.WeightedSum {
			_, _, err = skew.WeightedSum(n, cons, targets, weights)
			return err
		}
		_, _, err = skew.MinDelta(n, cons, anchors, 0)
		return err
	}); err != nil {
		return err
	}

	pn := make([]placer.PseudoNet, n)
	for i, id := range ffs {
		pn[i] = placer.PseudoNet{Cell: id, Target: asg.Taps[i].Point, Weight: 4}
	}
	iopt := popt
	iopt.PseudoNets = pn
	if err := step("placer.incremental", func() error { return sys.Incremental(iopt) }); err != nil {
		return err
	}
	if err := step("placer.legalize", func() error { return placer.Legalize(c) }); err != nil {
		return err
	}
	if err := step("placer.detailed", func() error {
		_, err := placer.DetailedExcluding(c, 1, ffs)
		return err
	}); err != nil {
		return err
	}
	root.End()

	snap := reg.Snapshot()
	for _, m := range []struct{ metric, span string }{
		{"placer.global_s", "placer.global"},
		{"placer.incremental_s", "placer.incremental"},
		{"placer.legalize_s", "placer.legalize"},
		{"placer.detailed_s", "placer.detailed"},
		{"timing.analyze_s", "timing.analyze"},
		{"skew.mindelta_s", "skew.mindelta"},
		{"skew.weightedsum_s", "skew.weightedsum"},
	} {
		if v, ok := spanSeconds(snap, m.span); ok {
			acc.add(m.metric, v)
		}
	}
	acc.add("timing.pairs", float64(len(pairs)))
	acc.add("skew.constraints", float64(len(cons)))
	return nil
}

// spanSeconds sums the durations of every span named name in the snapshot.
// ok is false when no such span exists, so a missing span is not read as a
// zero-length one.
func spanSeconds(s *obs.Snapshot, name string) (sec float64, ok bool) {
	if s == nil {
		return 0, false
	}
	var walk func(d *obs.SpanData)
	walk = func(d *obs.SpanData) {
		if d.Name == name {
			sec += d.Ms / 1000
			ok = true
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	for _, d := range s.Spans {
		walk(d)
	}
	return sec, ok
}
