package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric. Every metric the benchmark prints is
// declared here once, with its unit and the direction that counts as better,
// so the output and BENCHMARK.json cannot disagree about either.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// endToEnd are the metrics a user of the flow sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"flow_s", "s", "lower"},
	{"flow_cpu_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p75_ms", "ms", "lower"},
	{"tap_wl_um", "um", "lower"},
	{"signal_wl_um", "um", "lower"},
	{"max_cap_ff", "fF", "lower"},
	{"wcp_um_pf", "um.pF", "lower"},
	{"work_slack_ps", "ps", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
}

// perLayer are the traced run's metrics of single layers. A layer the
// workload never enters reports missingValue instead of 0.
var perLayer = []metricDef{
	{"core.iterations", "count", "lower"},
	{"core.best_iter", "count", "lower"},
	{"core.iters_after_best", "count", "lower"},
	{"core.recover_events", "count", "lower"},
	{"placer.stage1_s", "s", "lower"},
	{"placer.stage6_s", "s", "lower"},
	{"placer.cg_iters", "count", "lower"},
	{"placer.global_s", "s", "lower"},
	{"placer.incremental_s", "s", "lower"},
	{"placer.legalize_s", "s", "lower"},
	{"placer.detailed_s", "s", "lower"},
	{"timing.analyze_s", "s", "lower"},
	{"timing.pairs", "count", "lower"},
	{"skew.maxslack_s", "s", "lower"},
	{"skew.costdriven_s", "s", "lower"},
	{"skew.mindelta_s", "s", "lower"},
	{"skew.weightedsum_s", "s", "lower"},
	{"skew.constraints", "count", "lower"},
	{"assign.s", "s", "lower"},
	{"assign.tap_queries", "count", "lower"},
	{"assign.tapcache_hit_ratio", "ratio", "higher"},
	{"mcmf.relaxations", "count", "lower"},
	{"mcmf.paths", "count", "lower"},
	{"lp.assignlp.pivots", "count", "lower"},
	{"lp.assignlp.refactors", "count", "lower"},
	{"eco.apply_ms", "ms", "lower"},
	{"eco.place_ms", "ms", "lower"},
	{"eco.assign_ms", "ms", "lower"},
	{"eco.sched_ms", "ms", "lower"},
	{"eco.dirty_cells", "count", "lower"},
	{"eco.overlap_edits", "count", "lower"},
	{"eco.slowest_edit_ms", "ms", "lower"},
	{"assign.patch.cycles", "count", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"netlist.generate_s", "s", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// missingValue marks a per-layer metric whose span or counter the workload
// never emitted. Every real per-layer value is a duration, a count or a
// ratio, none of which can be negative, so -1 cannot be mistaken for a
// measurement (0 could).
const missingValue = -1

// median returns the middle value of vals (the mean of the two middle
// values for an even count). It does not modify vals. Empty input is NaN.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of vals by the nearest-rank rule: the
// value at 0-based rank ceil(q*n)-1 of the sorted samples. It does not
// modify vals. Empty input is NaN.
func nearestRank(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quality aggregates the design-quality metrics of a pass: wirelengths,
// ring capacitance and WCP add up across circuits (or edits), the working
// slack takes the worst (minimum) circuit.
type quality struct {
	TapWL, SignalWL, MaxCap, WCP float64
	WorkSlack                    float64
	n                            int
}

func (q *quality) add(tapWL, signalWL, maxCap, wcp, workSlack float64) {
	q.TapWL += tapWL
	q.SignalWL += signalWL
	q.MaxCap += maxCap
	q.WCP += wcp
	if q.n == 0 || workSlack < q.WorkSlack {
		q.WorkSlack = workSlack
	}
	q.n++
}

// layerAcc accumulates one pass's per-layer values. A key is present only
// when some source actually reported it, which is what separates a missing
// span from a measured zero.
type layerAcc map[string]float64

func (a layerAcc) add(name string, v float64) { a[name] += v }

// layerMedians reduces the per-pass accumulators to one value per
// per-layer metric: the median over the passes that reported it, or
// missingValue when none did.
func layerMedians(passes []layerAcc) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		var vals []float64
		for _, p := range passes {
			if v, ok := p[d.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			out[d.Name] = missingValue
			continue
		}
		out[d.Name] = median(vals)
	}
	return out
}

// report is one run's outcome.
type report struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// write prints every metric of defs as a readable line (name, value, unit,
// direction), then the machine-readable JSON object as the last line.
func (r *report) write(w io.Writer, defs []metricDef) error {
	out := resultJSON{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.Name)
		}
		out.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
		if v == missingValue && isLayer(d.Name) {
			missing = append(missing, d.Name)
			fmt.Fprintf(w, "metric %-28s missing (not emitted on this workload)\n", d.Name)
			continue
		}
		fmt.Fprintf(w, "metric %-28s %.6g %s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	if len(missing) > 0 {
		fmt.Fprintf(w, "missing per-layer metrics (reported as %d): %s\n", missingValue, strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func isLayer(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}
