package congestion

import (
	"math"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
)

func twoPinNet(t *testing.T, a, b geom.Point) *netlist.Circuit {
	t.Helper()
	c := netlist.New("two")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	ca := c.AddCell(&netlist.Cell{Name: "a", Kind: netlist.Gate})
	cb := c.AddCell(&netlist.Cell{Name: "b", Kind: netlist.Gate})
	ca.Pos, cb.Pos = a, b
	c.AddNet("n", ca.ID, cb.ID)
	return c
}

func TestSingleNetDemand(t *testing.T) {
	c := twoPinNet(t, geom.Pt(5, 5), geom.Pt(95, 5)) // horizontal net
	m, err := Estimate(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Total demand = bbox width (90) + height (0), one traversal.
	if d := m.TotalDemand(); math.Abs(d-90) > 1e-9 {
		t.Errorf("TotalDemand = %v, want 90", d)
	}
	// All demand is horizontal, spread over row y=0, bins x0..x9.
	for i, h := range m.Hor {
		y := i / 10
		if y == 0 && (i%10) >= 0 && (i%10) <= 9 {
			if h <= 0 {
				t.Errorf("bin %d should carry horizontal demand", i)
			}
		} else if h != 0 {
			t.Errorf("bin %d outside the bbox carries demand %v", i, h)
		}
	}
	for _, v := range m.Ver {
		if v != 0 {
			t.Errorf("vertical demand on a horizontal net")
		}
	}
}

func TestMultiPinTraversalFactor(t *testing.T) {
	// A 5-pin net has (5-1)/2 = 2 expected traversals.
	c := netlist.New("multi")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	ids := make([]int, 5)
	for i := range ids {
		cell := c.AddCell(&netlist.Cell{Name: "x", Kind: netlist.Gate})
		cell.Pos = geom.Pt(float64(i)*20+5, 50)
		ids[i] = cell.ID
	}
	c.AddNet("n", ids...)
	m, err := Estimate(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.TotalDemand(); math.Abs(d-80*2) > 1e-9 {
		t.Errorf("TotalDemand = %v, want 160", d)
	}
}

func TestStats(t *testing.T) {
	c := twoPinNet(t, geom.Pt(5, 5), geom.Pt(95, 5))
	m, _ := Estimate(c, 10)
	s := m.Stats(5)
	if s.PeakH != 9 { // 90 um over 10 bins
		t.Errorf("PeakH = %v, want 9", s.PeakH)
	}
	if s.OverflowBins != 10 {
		t.Errorf("OverflowBins = %d, want 10 (9 > 5 everywhere on the row)", s.OverflowBins)
	}
	if math.Abs(s.WorstUtil-9.0/5) > 1e-9 {
		t.Errorf("WorstUtil = %v", s.WorstUtil)
	}
	// Generous capacity: no overflow.
	if s2 := m.Stats(100); s2.OverflowBins != 0 || s2.WorstUtil > 1 {
		t.Errorf("no-overflow stats = %+v", s2)
	}
}

func TestEstimateErrors(t *testing.T) {
	c := netlist.New("bad")
	if _, err := Estimate(c, 10); err == nil {
		t.Error("empty die accepted")
	}
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	if _, err := Estimate(c, 0); err == nil {
		t.Error("zero grid accepted")
	}
}

func TestPlacementReducesCongestionPeak(t *testing.T) {
	c, err := netlist.Generate(netlist.GenSpec{Name: "cg", Cells: 500, FlipFlops: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	before, err := Estimate(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := placer.NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Global(placer.Options{}); err != nil {
		t.Fatal(err)
	}
	after, err := Estimate(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Placement shortens nets, so total routing demand must fall sharply.
	if after.TotalDemand() > before.TotalDemand()*0.6 {
		t.Errorf("placement barely reduced demand: %v -> %v", before.TotalDemand(), after.TotalDemand())
	}
}
