package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	for _, tc := range []struct {
		vals []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5},   // rank ceil(5)-1 = 4
		{ten, 0.75, 8},  // rank ceil(7.5)-1 = 7
		{ten, 0.99, 10}, // rank ceil(9.9)-1 = 9
		{ten, 1, 10},
		{ten, 0, 1}, // clamped to the first rank
		{forty, 0.5, 20},
		{forty, 0.75, 30}, // ten samples (31..40) beyond it
		{[]float64{7}, 0.75, 7},
	} {
		if got := nearestRank(tc.vals, tc.q); got != tc.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", tc.vals, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("nearestRank of no samples should be NaN")
	}
	if ten[0] != 10 {
		t.Error("nearestRank reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
	} {
		if got := median(tc.vals); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// Wirelengths, capacitance and WCP add up across circuits; the working
// slack is the worst circuit's.
func TestQualityAggregation(t *testing.T) {
	var q quality
	q.add(10, 100, 5, 1, 40)
	q.add(20, 200, 7, 2, 30)
	q.add(30, 300, 9, 3, 50)
	want := quality{TapWL: 60, SignalWL: 600, MaxCap: 21, WCP: 6, WorkSlack: 30, n: 3}
	if q != want {
		t.Errorf("aggregated %+v, want %+v", q, want)
	}
	// A negative slack on the first circuit must survive later circuits.
	var neg quality
	neg.add(1, 1, 1, 1, -5)
	neg.add(1, 1, 1, 1, 10)
	if neg.WorkSlack != -5 {
		t.Errorf("min slack %v, want -5", neg.WorkSlack)
	}
}

func TestRoundTiming(t *testing.T) {
	r := &rounds{
		plainWall:  [][]float64{{1, 3, 2}, {10, 30, 20}, {}},
		plainCPU:   [][]float64{{2, 2, 2}, {4, 4, 4}, {}},
		tracedWall: [][]float64{{3}, {22}, {}},
	}
	m := map[string]float64{}
	r.putTiming(m)
	// Per-operation medians 2 s and 20 s; the failed third operation has
	// no samples and drops out.
	if m["flow_s"] != 22 || m["flow_cpu_s"] != 6 {
		t.Errorf("flow_s %v flow_cpu_s %v, want 22 and 6", m["flow_s"], m["flow_cpu_s"])
	}
	if m["op_p50_ms"] != 2000 || m["op_p75_ms"] != 20000 {
		t.Errorf("percentiles %v %v, want 2000 and 20000", m["op_p50_ms"], m["op_p75_ms"])
	}
	if got := r.overhead(); math.Abs(got-(25.0/22-1)) > 1e-12 {
		t.Errorf("overhead %v, want %v", got, 25.0/22-1)
	}
}

func TestLayerMediansReportMissing(t *testing.T) {
	got := layerMedians([]layerAcc{
		{"core.iterations": 4, "assign.s": 0},
		{"core.iterations": 6},
		{"core.iterations": 5},
	})
	if got["core.iterations"] != 5 {
		t.Errorf("core.iterations %v, want the median 5", got["core.iterations"])
	}
	if got["assign.s"] != 0 {
		t.Errorf("a measured zero must stay 0, got %v", got["assign.s"])
	}
	if got["lp.assignlp.pivots"] != missingValue {
		t.Errorf("an absent counter must read missing (%v), got %v", missingValue, got["lp.assignlp.pivots"])
	}
	if len(got) != len(perLayer) {
		t.Errorf("%d values for %d per-layer metrics", len(got), len(perLayer))
	}
}

// Every metric appears in the readable lines with its unit and direction,
// and the last line is the JSON result with exactly the contract's keys.
func TestReportOutput(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		rep := &report{Attempted: 4, Failed: 1, Metrics: map[string]float64{}}
		for i, d := range defs {
			rep.Metrics[d.Name] = float64(i) + 0.5
		}
		rep.Metrics[defs[0].Name] = missingValue
		var b bytes.Buffer
		if err := rep.write(&b, defs); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		text := strings.Join(lines[:len(lines)-1], "\n")
		for _, d := range defs[1:] {
			want := d.Unit + " (" + d.Better + " is better)"
			if !strings.Contains(text, "metric "+d.Name) || !strings.Contains(text, want) {
				t.Errorf("output lacks %s with %q", d.Name, want)
			}
		}

		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
			t.Errorf("result keys %v", keysOf(out))
		}
		var res resultJSON
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Attempted != 4 || res.Failed != 1 {
			t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || m.Value != rep.Metrics[d.Name] {
				t.Errorf("metric %s = %+v, want %v %s", d.Name, m, rep.Metrics[d.Name], d.Unit)
			}
		}
	}
}

func TestReportRejectsNonFinite(t *testing.T) {
	rep := &report{Attempted: 1, Metrics: map[string]float64{}}
	for _, d := range endToEnd {
		rep.Metrics[d.Name] = 1
	}
	rep.Metrics["flow_s"] = math.NaN()
	if err := rep.write(&bytes.Buffer{}, endToEnd); err == nil {
		t.Error("a NaN metric was printed")
	}
}

// Names, units and directions stay inside what BENCHMARK.json accepts.
func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || strings.Trim(d.Name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("bad metric name %q", d.Name)
		}
		if len(d.Unit) == 0 || len(d.Unit) > 16 || strings.Trim(d.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("bad unit %q for %s", d.Unit, d.Name)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("bad direction %q for %s", d.Better, d.Name)
		}
	}
}

func TestTraceSpanMs(t *testing.T) {
	trace := "counters:\n  eco.apply                                1\nspans:\n" +
		"  eco.apply 12.50ms deltas=1 mode=patch\n    eco.netlist 0.10ms\n    eco.place 2.25ms\n" +
		"  eco.apply 1.50ms deltas=1\n    eco.place 0.75ms\n"
	if ms, ok := traceSpanMs(trace, "eco.apply"); !ok || ms != 14 {
		t.Errorf("eco.apply = %v %v, want 14 true", ms, ok)
	}
	if ms, ok := traceSpanMs(trace, "eco.place"); !ok || ms != 3 {
		t.Errorf("eco.place = %v %v, want 3 true", ms, ok)
	}
	if _, ok := traceSpanMs(trace, "eco.assign"); ok {
		t.Error("absent span reported present")
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// BENCHMARK.json at the repository root declares the same metrics, units
// and directions as this program prints, and the same workloads.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, printed %+v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program workloads %s", got, want)
	}
}
