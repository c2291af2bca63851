package main

import (
	"math/rand"
	"strings"
	"testing"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/serve"
)

// smallFlow runs the default flow on a small generated circuit.
func smallFlow(t *testing.T) (*netlist.Circuit, core.Config, *core.Result) {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "check", Cells: 400, FlipFlops: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(4)
	res, err := core.Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, cfg, res
}

func wantFailure(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not flagged (want %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("flagged %q, want the %q check", err, fragment)
	}
}

// The checks pass a clean flow result and fire on each kind of corruption.
func TestCheckFlowNegative(t *testing.T) {
	c, cfg, res := smallFlow(t)
	if err := checkFlow(c, cfg, res, nil); err != nil {
		t.Fatalf("clean result flagged: %v", err)
	}

	t.Run("schedule", func(t *testing.T) {
		ffIdx := map[int]int{}
		for i, id := range res.FFCells {
			ffIdx[id] = i
		}
		pairs, err := seqPairs(c, cfg.TModel, ffIdx)
		if err != nil || len(pairs) == 0 {
			t.Fatalf("no timing pairs to corrupt (%v)", err)
		}
		var u int
		for _, p := range pairs {
			if p.U != p.V {
				u = p.U
				break
			}
		}
		bad := *res
		bad.Schedule = append([]float64(nil), res.Schedule...)
		bad.Schedule[u] += 10 * cfg.Params.Period
		wantFailure(t, checkFlow(c, cfg, &bad, nil), "violates")
	})

	t.Run("overlap", func(t *testing.T) {
		cc := c.Clone()
		var movable []int
		for _, cell := range cc.Cells {
			if !cell.Fixed && cell.W > 0 {
				movable = append(movable, cell.ID)
			}
		}
		cc.Cells[movable[1]].Pos = cc.Cells[movable[0]].Pos
		if ov := placer.MaxOverlap(cc); ov == 0 {
			t.Fatal("test setup made no overlap")
		}
		wantFailure(t, checkFlow(cc, cfg, res, nil), "not legal")
	})

	t.Run("unassigned", func(t *testing.T) {
		bad := *res
		a := *res.Assign
		a.Ring = a.Ring[:len(a.Ring)-1]
		bad.Assign = &a
		wantFailure(t, checkFlow(c, cfg, &bad, nil), "does not cover")
	})

	t.Run("capacity", func(t *testing.T) {
		bad := *res
		a := *res.Assign
		a.Ring = make([]int, len(res.Assign.Ring)) // every flip-flop on ring 0
		bad.Assign = &a
		wantFailure(t, checkFlow(c, cfg, &bad, nil), "capacity")
	})

	t.Run("loads", func(t *testing.T) {
		bad := *res
		a := *res.Assign
		a.MaxCap *= 0.5
		bad.Assign = &a
		wantFailure(t, checkFlow(c, cfg, &bad, nil), "max ring load")
	})

	t.Run("degraded", func(t *testing.T) {
		bad := *res
		bad.Degraded = true
		wantFailure(t, checkFlow(c, cfg, &bad, nil), "degraded")
	})
}

// An ECO answer is accepted when it reports the replayed design and
// rejected when any reported figure is off.
func TestCheckEditNegative(t *testing.T) {
	c, cfg, res := smallFlow(t)
	cfg.TapCache = assign.NewTapCache()
	ds := eco.RandomDeltas(rand.New(rand.NewSource(5)), c, cfg.NumRings, 1)
	if len(ds) != 1 {
		t.Fatal("no delta drawn")
	}
	st, err := core.NewECOState(c.Clone(), cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.ApplyECO(st, ds, cfg, eco.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := &serve.ECOResponse{
		WorkSlackPS: out.Outcome.WorkSlack,
		TapTotalUM:  out.Outcome.Total,
		Final:       out.Final,
		DirtyCells:  out.Outcome.DirtyCells,
	}
	if _, err := checkEdit(c, res, cfg, ds[0], good); err != nil {
		t.Fatalf("faithful answer flagged: %v", err)
	}
	for name, corrupt := range map[string]func(*serve.ECOResponse){
		"max cap":    func(r *serve.ECOResponse) { r.Final.MaxCap *= 0.99 },
		"work slack": func(r *serve.ECOResponse) { r.WorkSlackPS++ },
		"dirty":      func(r *serve.ECOResponse) { r.DirtyCells++ },
	} {
		bad := *good
		corrupt(&bad)
		_, err := checkEdit(c, res, cfg, ds[0], &bad)
		if err == nil || !strings.Contains(err.Error(), "differs from the checked replay") {
			t.Errorf("corrupted %s: got %v", name, err)
		}
	}
}
