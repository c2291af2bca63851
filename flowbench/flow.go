package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rotaryclk/internal/bench"
	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/timing"
)

// flowCase is one core.Run input of a flow workload.
type flowCase struct {
	Spec netlist.GenSpec
	Cfg  core.Config
}

// options are the command-line settings of one run.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Log     io.Writer
}

// parallelism is the kernel worker count of every solver call: the host's
// cores, at most two, from one closed-loop client.
func parallelism() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// baseConfig is the flow's default configuration with every constant the
// output checks rely on spelled out.
func baseConfig(rings int) core.Config {
	return core.Config{
		Params:      rotary.DefaultParams(),
		TModel:      timing.DefaultModel(),
		NumRings:    rings,
		Parallelism: parallelism(),
	}
}

// genSeed derives a generator seed from the workload seed, the circuit's own
// seed and its variant index (splitmix64 finalizer, so neighbouring inputs
// give unrelated circuits).
func genSeed(seed, circuit int64, variant int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(circuit)*0xbf58476d1ce4e5b9 + uint64(variant)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// Workload sizes. A flow workload runs several seed-derived variants of its
// circuits per pass: one circuit's flow time and quality depend strongly on
// the random netlist (the loop's iteration count varies with it), and the
// sum over variants is what keeps two seeds' runs comparable.
const (
	table2Scale    = 0.15
	table2Variants = 9

	ilpCells    = 3000
	ilpVariants = 12
)

// table2Cases are the five Table II circuits, scaled, with the default
// configuration: network-flow assignment, min-delta skew, flat placement.
func table2Cases(seed int64) []flowCase {
	var cs []flowCase
	for v := 0; v < table2Variants; v++ {
		for _, b := range bench.Suite {
			s := b.Scale(table2Scale)
			cs = append(cs, flowCase{
				Spec: netlist.GenSpec{
					Name:      fmt.Sprintf("%s-v%d", s.Name, v),
					Cells:     s.Cells,
					FlipFlops: s.FlipFlops,
					Seed:      genSeed(seed, s.Seed, v),
				},
				Cfg: baseConfig(s.Rings),
			})
		}
	}
	return cs
}

// ilpCases are ISCAS-profile circuits (10% flip-flops, 16 rings) run with
// the ILP assigner, the weighted-sum skew objective and multilevel placement.
func ilpCases(seed int64) []flowCase {
	var cs []flowCase
	for v := 0; v < ilpVariants; v++ {
		cfg := baseConfig(16)
		cfg.Assigner = core.ILP
		cfg.Objective = core.WeightedSum
		cfg.Multilevel = true
		cs = append(cs, flowCase{
			Spec: netlist.GenSpec{
				Name:      fmt.Sprintf("ilp-v%d", v),
				Cells:     ilpCells,
				FlipFlops: ilpCells / 10,
				Seed:      genSeed(seed, 12000, v),
			},
			Cfg: cfg,
		})
	}
	return cs
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// generateAll builds every case's circuit once.
func generateAll(cases []flowCase) ([]*netlist.Circuit, error) {
	cs := make([]*netlist.Circuit, len(cases))
	for i, fc := range cases {
		c, err := netlist.Generate(fc.Spec)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", fc.Spec.Name, err)
		}
		cs[i] = c
	}
	return cs, nil
}

// runFlowWorkload times core.Run over the workload's circuits. Set-up
// generates every circuit (setupReps times). Each round then runs the flow
// on a fresh copy of every circuit and checks each result outside the
// timed call; a repeated circuit must reproduce its first result exactly.
// A traced run alternates rounds without and with a telemetry registry,
// which yields the per-layer numbers and the tracing overhead, and ends
// with the layer replay.
func runFlowWorkload(cases []flowCase, o options) (*report, error) {
	var circuits []*netlist.Circuit
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		cs, err := generateAll(cases)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		circuits = cs
	}

	first := make([]*core.Metrics, len(cases)) // each circuit's first result
	var q quality
	r := runRounds(o, len(cases), func(i int, traced bool, m *meter, acc layerAcc) error {
		c := circuits[i].Clone()
		cfg := cases[i].Cfg
		if traced {
			cfg.Obs = obs.NewRegistry()
		}
		var res *core.Result
		var err error
		m.time(func() { res, err = core.Run(c, cfg) })
		if err := checkFlow(c, cfg, res, err); err != nil {
			return fmt.Errorf("%s: %w", cases[i].Spec.Name, err)
		}
		if first[i] == nil {
			first[i] = &res.Final
			q.add(res.Final.TapWL, res.Final.SignalWL, res.Final.MaxCap, res.Final.WCP, res.WorkSlack)
		} else if res.Final != *first[i] {
			return fmt.Errorf("%s: result differs from the first run on identical input", cases[i].Spec.Name)
		}
		if traced {
			addFlowLayers(acc, res)
		}
		return nil
	})
	rep := &report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]float64{}}

	if !o.Trace {
		rep.Metrics["setup_s"] = median(setups)
		r.putTiming(rep.Metrics)
		putQuality(rep.Metrics, q)
		putCommon(rep)
		return rep, nil
	}

	for _, acc := range r.accs {
		finishTapCacheRatio(acc)
	}
	replay := layerAcc{}
	for i, fc := range cases {
		if err := replayLayers(circuits[i].Clone(), fc.Cfg, replay); err != nil {
			rep.Attempted++
			rep.Failed++
			fmt.Fprintf(o.Log, "FAIL %v\n", err)
		}
	}
	rep.Metrics = layerMedians(append(r.accs, replay))
	rep.Metrics["netlist.generate_s"] = median(setups)
	rep.Metrics["trace.overhead_frac"] = r.overhead()
	return rep, nil
}

// putQuality records a pass's design quality as end-to-end metrics.
func putQuality(m map[string]float64, q quality) {
	m["tap_wl_um"] = q.TapWL
	m["signal_wl_um"] = q.SignalWL
	m["max_cap_ff"] = q.MaxCap
	m["wcp_um_pf"] = q.WCP
	m["work_slack_ps"] = q.WorkSlack
}

// putCommon records the process-level end-to-end metrics.
func putCommon(rep *report) {
	rep.Metrics["peak_rss_mb"] = peakRSSMB()
	rep.Metrics["ok_frac"] = 1 - float64(rep.Failed)/float64(rep.Attempted)
}

// addFlowLayers adds one traced core.Run's spans, counters and iteration
// record to acc.
func addFlowLayers(acc layerAcc, res *core.Result) {
	best := bestIter(res)
	acc.add("core.iterations", float64(res.Iterations))
	acc.add("core.best_iter", float64(best))
	acc.add("core.iters_after_best", float64(res.Iterations-best))
	acc.add("core.recover_events", float64(len(res.Events)))

	s := res.Metrics
	for _, m := range []struct {
		metric string
		spans  []string
	}{
		{"placer.stage1_s", []string{"stage1.place"}},
		{"placer.stage6_s", []string{"stage6.place"}},
		{"skew.maxslack_s", []string{"stage2.maxslack", "stage4.slack-refresh"}},
		{"skew.costdriven_s", []string{"stage4.skew"}},
		{"assign.s", []string{"stage3.assign"}},
	} {
		for _, name := range m.spans {
			if v, ok := spanSeconds(s, name); ok {
				acc.add(m.metric, v)
			}
		}
	}
	for _, m := range []struct{ metric, counter string }{
		{"placer.cg_iters", "placer.cg.iters"},
		{"assign.tap_queries", "assign.tap.queries"},
		{"mcmf.relaxations", "mcmf.relaxations"},
		{"mcmf.paths", "mcmf.paths"},
		{"lp.assignlp.pivots", "lp.assignlp.pivots"},
		{"lp.assignlp.refactors", "lp.assignlp.refactors"},
	} {
		if v, ok := s.Counters[m.counter]; ok {
			acc.add(m.metric, float64(v))
		}
	}
	for _, name := range []string{"assign.tapcache.hits", "assign.tapcache.misses"} {
		if v, ok := s.Stats[name]; ok {
			acc.add(name, float64(v))
		}
	}
}

// finishTapCacheRatio turns the pass's summed tap-cache hit and miss stats
// into the hit ratio.
func finishTapCacheRatio(acc layerAcc) {
	hits, okH := acc["assign.tapcache.hits"]
	misses, okM := acc["assign.tapcache.misses"]
	delete(acc, "assign.tapcache.hits")
	delete(acc, "assign.tapcache.misses")
	if (okH || okM) && hits+misses > 0 {
		acc["assign.tapcache_hit_ratio"] = hits / (hits + misses)
	}
}

// bestIter is the index in PerIter of the snapshot the flow kept (0 is the
// base case): the first iterate whose metrics equal the final ones.
func bestIter(res *core.Result) int {
	for i, m := range res.PerIter {
		if m == res.Final {
			return i
		}
	}
	return res.Iterations
}
