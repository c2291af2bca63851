// ECO edit-latency harness: the headline benchmark of the incremental
// re-optimization path (internal/eco). One base flow runs at the requested
// size, then a stream of small random edit batches is absorbed through
// core.ApplyECO, timing each apply; the claim under test is edit latency vs
// a full from-scratch re-run of the flow on the same edited netlist (target
// >=10x at 50k cells for <=1% dirty cells). Results land in the eco section
// of BENCH_scaling.json via cmd/rotaryscale -eco.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/oracle"
)

// ECOOptions configures one edit-latency measurement.
type ECOOptions struct {
	// Cells sizes the synthetic circuit (default 50000).
	Cells int
	// Edits is the number of sequential edit batches applied to the live
	// state (default 20).
	Edits int
	// DeltasPerEdit is the batch size of each edit (default 1 — the
	// single-edit latency the ECO mode exists for).
	DeltasPerEdit int
	// Iters bounds the flow iterations of the base run and the scratch
	// re-run (default 2, the benchmark/serving convention).
	Iters int
	// Seed feeds the generator and the delta stream.
	Seed int64
	// Parallelism bounds solver workers (0 = GOMAXPROCS).
	Parallelism int
	// Check runs a from-scratch arm (eco.Options.Scratch) beside the
	// incremental arm on a cloned state and verifies after every edit that
	// positions and schedules agree within 1e-9 and tapping totals within
	// 1e-6 relative — the differential-oracle contract, enforced inline at
	// benchmark scale.
	Check bool
	// Log, when non-nil, receives one progress line per edit.
	Log func(format string, args ...any)
}

func (o *ECOOptions) normalize() {
	if o.Cells <= 0 {
		o.Cells = 50000
	}
	if o.Edits <= 0 {
		o.Edits = 20
	}
	if o.DeltasPerEdit <= 0 {
		o.DeltasPerEdit = 1
	}
	if o.Iters <= 0 {
		o.Iters = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ECOPoint is one row of the edit-latency benchmark, recorded in the eco
// section of BENCH_scaling.json.
type ECOPoint struct {
	Cells         int `json:"cells"`
	FFs           int `json:"ffs"`
	Rings         int `json:"rings"`
	Edits         int `json:"edits"`
	DeltasPerEdit int `json:"deltas_per_edit"`
	NoOps         int `json:"noops"`

	// DirtyCellFrac is the mean fraction of cells the dirty-region solve
	// re-placed per edit — the "<=1% dirty" side of the headline claim.
	DirtyCellFrac float64 `json:"dirty_cell_frac"`

	BaseNS    int64 `json:"base_flow_ns"`  // one-time base flow
	FullNS    int64 `json:"full_rerun_ns"` // scratch flow on the edited netlist
	EcoMeanNS int64 `json:"eco_mean_ns"`   // mean per-edit apply
	EcoMaxNS  int64 `json:"eco_max_ns"`    // worst per-edit apply

	// Speedup is FullNS / EcoMeanNS — the headline ratio.
	Speedup float64 `json:"speedup"`
	// Checked records whether the inline patch-vs-scratch equivalence check
	// ran (and, since a violation is an error, passed).
	Checked bool `json:"checked"`
}

// RunECOBench measures ECO edit latency at one size. With opt.Check it also
// proves the incremental arm equivalent to a from-scratch arm after every
// edit, so the speedup number can never come from skipped work.
func RunECOBench(opt ECOOptions) (*ECOPoint, error) {
	opt.normalize()
	c, err := netlist.Generate(netlist.GenSpec{
		Name:      fmt.Sprintf("eco%d", opt.Cells),
		Cells:     opt.Cells,
		FlipFlops: opt.Cells / 10,
		Seed:      opt.Seed + int64(opt.Cells),
	})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		NumRings:    ringsFor(opt.Cells),
		MaxIters:    opt.Iters,
		Parallelism: opt.Parallelism,
	}

	t0 := time.Now()
	res, err := core.Run(c, cfg)
	if err != nil {
		return nil, fmt.Errorf("base flow: %w", err)
	}
	baseNS := time.Since(t0).Nanoseconds()
	if res.Degraded {
		return nil, fmt.Errorf("base flow degraded; no clean state to edit")
	}
	st, err := core.NewECOState(c, cfg, res)
	if err != nil {
		return nil, err
	}
	var stScratch *eco.State
	if opt.Check {
		stScratch, err = core.NewECOState(c.Clone(), cfg, res)
		if err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(opt.Seed + 31*int64(opt.Cells)))
	pt := &ECOPoint{
		Cells: opt.Cells, FFs: len(st.FFCells), Rings: len(st.Array.Rings),
		Edits: opt.Edits, DeltasPerEdit: opt.DeltasPerEdit,
		BaseNS: baseNS, Checked: opt.Check,
	}
	var ecoTotal, ecoMax int64
	var dirtyFrac float64
	for e := 0; e < opt.Edits; e++ {
		deltas := eco.RandomDeltas(rng, st.Circuit, pt.Rings, opt.DeltasPerEdit)
		t0 = time.Now()
		out, err := core.ApplyECO(st, deltas, cfg, eco.Options{})
		d := time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", e, err)
		}
		if out.Outcome.Degraded {
			return nil, fmt.Errorf("edit %d degraded: %v", e, out.Outcome.Events)
		}
		ecoTotal += d
		if d > ecoMax {
			ecoMax = d
		}
		pt.NoOps += out.Outcome.NoOps
		dirtyFrac += float64(out.Outcome.DirtyCells) / float64(len(st.Circuit.Cells))
		if opt.Check {
			out2, err := core.ApplyECO(stScratch, deltas, cfg, eco.Options{Scratch: true})
			if err != nil {
				return nil, fmt.Errorf("edit %d scratch arm: %w", e, err)
			}
			if out2.Outcome.Degraded {
				return nil, fmt.Errorf("edit %d scratch arm degraded: %v", e, out2.Outcome.Events)
			}
			if err := oracle.CompareECO(st, stScratch, out.Outcome.Total, out2.Outcome.Total); err != nil {
				return nil, fmt.Errorf("edit %d: eco/scratch divergence: %w", e, err)
			}
		}
		if opt.Log != nil {
			opt.Log("edit %3d: %8.2f ms, %d dirty cells",
				e, float64(d)/1e6, out.Outcome.DirtyCells)
		}
	}
	pt.DirtyCellFrac = dirtyFrac / float64(opt.Edits)
	pt.EcoMeanNS = ecoTotal / int64(opt.Edits)
	pt.EcoMaxNS = ecoMax

	// The comparison target: what absorbing the edits would have cost
	// without the ECO path — a full flow re-run on the edited netlist.
	t0 = time.Now()
	if _, err := core.Run(st.Circuit.Clone(), cfg); err != nil {
		return nil, fmt.Errorf("scratch re-run: %w", err)
	}
	pt.FullNS = time.Since(t0).Nanoseconds()
	if pt.EcoMeanNS > 0 {
		pt.Speedup = float64(pt.FullNS) / float64(pt.EcoMeanNS)
	}
	return pt, nil
}
