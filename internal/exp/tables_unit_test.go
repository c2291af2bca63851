package exp

import (
	"math"
	"testing"

	"rotaryclk/internal/bench"
	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
)

// fakeRun builds a CircuitRun with hand-set metrics so the table arithmetic
// can be verified exactly without running the flow.
func fakeRun(name string, base, final, ilpFinal core.Metrics) *CircuitRun {
	return &CircuitRun{
		Bench:  bench.Circuit{Name: name, Rings: 9, PaperPL: 2471},
		Stats:  netlist.Stats{Cells: 100, FlipFlops: 10, Nets: 95},
		TreePL: 1234,
		Flow: &core.Result{
			Base: base, Final: final, Iterations: 3,
			// Stage spans summing to 1.5 s of placement and 0.5 s of
			// optimization; stage5.evaluate belongs to neither column.
			Metrics: &obs.Snapshot{Spans: []*obs.SpanData{{Name: "core.Run", Ms: 2100, Children: []*obs.SpanData{
				{Name: "stage1.place", Ms: 1000},
				{Name: "stage2.maxslack", Ms: 250},
				{Name: "stage3.assign", Ms: 125},
				{Name: "flow.iter", Ms: 725, Children: []*obs.SpanData{
					{Name: "stage6.place", Ms: 500},
					{Name: "stage4.skew", Ms: 125},
					{Name: "stage5.evaluate", Ms: 100},
				}},
			}}}},
		},
		ILPFlow: &core.Result{Base: base, Final: ilpFinal},
	}
}

func metrics(tap, sig, cap float64) core.Metrics {
	m := core.Metrics{TapWL: tap, SignalWL: sig, MaxCap: cap}
	m.TotalWL = tap + sig
	m.ClockPower = tap / 100
	m.SignalPower = sig / 100
	m.TotalPower = m.ClockPower + m.SignalPower
	m.AFD = tap / 10
	m.WCP = m.TotalWL * cap / 1000
	return m
}

func fakeRuns() []*CircuitRun {
	base := metrics(1000, 10000, 50)
	final := metrics(500, 10500, 40) // tap halved, signal +5%
	ilp := metrics(800, 10200, 25)   // cap halved vs flow's 40... 25 < 40
	return []*CircuitRun{fakeRun("x1", base, final, ilp)}
}

func TestTableIVArithmetic(t *testing.T) {
	rows := TableIV(fakeRuns())
	r := rows[0]
	if math.Abs(r.TapImp-0.5) > 1e-12 {
		t.Errorf("TapImp = %v, want 0.5", r.TapImp)
	}
	if math.Abs(r.SignalImp-(-0.05)) > 1e-12 {
		t.Errorf("SignalImp = %v, want -0.05", r.SignalImp)
	}
	if math.Abs(r.TotalImp-(11000-11000)/11000.0) > 1e-12 {
		t.Errorf("TotalImp = %v, want 0", r.TotalImp)
	}
	if r.Iters != 3 || r.PlaceCPU != 1.5 || r.OptCPU != 0.5 {
		t.Errorf("row bookkeeping: %+v", r)
	}
}

func TestTableVArithmetic(t *testing.T) {
	r := TableV(fakeRuns())[0]
	if math.Abs(r.CapImp-(40.0-25)/40) > 1e-12 {
		t.Errorf("CapImp = %v", r.CapImp)
	}
	if math.Abs(r.AFDImp-(50.0-80)/50) > 1e-12 {
		t.Errorf("AFDImp = %v", r.AFDImp)
	}
	if r.FlowCap != 40 || r.ILPCap != 25 {
		t.Errorf("caps: %+v", r)
	}
}

func TestTableVIArithmetic(t *testing.T) {
	r := TableVI(fakeRuns())[0]
	// Base clock power 10, flow final 5 => 50% improvement.
	if math.Abs(r.FlowClockImp-0.5) > 1e-12 {
		t.Errorf("FlowClockImp = %v", r.FlowClockImp)
	}
	// Base signal 100, flow final 105 => -5%.
	if math.Abs(r.FlowSignalImp-(-0.05)) > 1e-12 {
		t.Errorf("FlowSignalImp = %v", r.FlowSignalImp)
	}
}

func TestTableVIIArithmetic(t *testing.T) {
	r := TableVII(fakeRuns())[0]
	flowWCP := 11000 * 40.0 / 1000
	ilpWCP := 11000 * 25.0 / 1000
	if math.Abs(r.FlowWCP-flowWCP) > 1e-9 || math.Abs(r.ILPWCP-ilpWCP) > 1e-9 {
		t.Errorf("WCPs: %+v", r)
	}
	if math.Abs(r.Imp-(flowWCP-ilpWCP)/flowWCP) > 1e-12 {
		t.Errorf("Imp = %v", r.Imp)
	}
}

func TestTableIIPassThrough(t *testing.T) {
	r := TableII(fakeRuns())[0]
	if r.Cells != 100 || r.FFs != 10 || r.Nets != 95 || r.PL != 1234 || r.Rings != 9 || r.PaperPL != 2471 {
		t.Errorf("row = %+v", r)
	}
}

func TestImpZeroBase(t *testing.T) {
	if v := imp(0, 5); v != 0 {
		t.Errorf("imp with zero base = %v", v)
	}
}
