package core

import (
	"testing"

	"rotaryclk/internal/netlist"
)

func TestAutoRings(t *testing.T) {
	gen := func() (*netlist.Circuit, error) {
		return netlist.Generate(netlist.GenSpec{Name: "ar", Cells: 250, FlipFlops: 32, Seed: 8})
	}
	best, points, err := AutoRings(gen, Config{MaxIters: 2}, []int{4, 9, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	found := false
	for _, p := range points {
		if p.Rings == best {
			found = true
		}
		if p.Final.TapWL <= 0 {
			t.Errorf("ring count %d has empty metrics", p.Rings)
		}
	}
	if !found {
		t.Fatalf("best count %d not among sweep points", best)
	}
	// The best must actually minimize the flow cost among points.
	cfg := Config{MaxIters: 2}
	cfg.normalize()
	bestScore := 0.0
	for _, p := range points {
		if p.Rings == best {
			bestScore = cost(cfg, p.Final)
		}
	}
	for _, p := range points {
		if s := cost(cfg, p.Final); s < bestScore-1e-9 {
			t.Errorf("ring count %d scores %v, better than chosen %d (%v)", p.Rings, s, best, bestScore)
		}
	}
}

func TestAutoRingsBadCount(t *testing.T) {
	gen := func() (*netlist.Circuit, error) {
		return netlist.Generate(netlist.GenSpec{Name: "ar", Cells: 250, FlipFlops: 32, Seed: 8})
	}
	if _, _, err := AutoRings(gen, Config{MaxIters: 1}, []int{0}); err == nil {
		t.Fatal("zero ring count accepted")
	}
}

func TestAutoRingsILPUsesWCP(t *testing.T) {
	gen := func() (*netlist.Circuit, error) {
		return netlist.Generate(netlist.GenSpec{Name: "ar2", Cells: 200, FlipFlops: 24, Seed: 9})
	}
	best, points, err := AutoRings(gen, Config{MaxIters: 1, Assigner: ILP}, []int{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	bestWCP := 0.0
	for _, p := range points {
		if p.Rings == best {
			bestWCP = p.Final.WCP
		}
	}
	for _, p := range points {
		if p.Final.WCP < bestWCP-1e-9 {
			t.Errorf("ILP sweep: count %d has WCP %v < chosen %v", p.Rings, p.Final.WCP, bestWCP)
		}
	}
}
