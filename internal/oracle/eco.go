package oracle

// The ECO-vs-scratch differential oracle: the incremental re-optimization
// path (internal/eco) claims its three layers — CSR patching + dirty-region
// placement, warm-started scheduling, residual-flow assignment patching —
// are exact, not approximate. This oracle holds it to that claim by running
// the same delta sequence through the incremental arm and through a
// from-scratch arm (Options.Scratch: same orchestration, full recompute) on
// independent clones of one placed circuit, comparing positions, schedules,
// totals and failure behavior after every delta.

import (
	"fmt"
	"math"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
)

// ECOSpec is the generated-circuit + delta-sequence configuration of one
// ECO differential check, serialized into its repro.
type ECOSpec struct {
	Spec   netlist.GenSpec
	Deltas []eco.Delta
}

func (s *ECOSpec) clone() *ECOSpec {
	return &ECOSpec{Spec: s.Spec, Deltas: append([]eco.Delta(nil), s.Deltas...)}
}

// CheckECO generates the circuit, runs the base flow once, then applies the
// delta sequence one delta at a time through the incremental arm and the
// scratch arm. After every delta both arms must agree on feasibility and
// degradation and pass CompareECO (the patched assignment is cost-equal, not
// tie-equal, so totals get the looser bound). A base flow that fails or
// degrades yields no comparison. The check returns at the first divergence:
// past it the arms optimize different states and later differences are
// noise.
func CheckECO(s *ECOSpec, cfg core.Config, seed int64) []Violation {
	const name = "eco/scratch"
	c, err := netlist.Generate(s.Spec)
	if err != nil {
		return violationf(name, seed, "generator failed: %v", err)
	}
	res, err := core.Run(c, cfg)
	if err != nil || res.Degraded {
		return nil // no clean base case to differentiate against
	}
	c1, c2 := c.Clone(), c.Clone()
	st1, err1 := core.NewECOState(c1, cfg, res)
	st2, err2 := core.NewECOState(c2, cfg, res)
	if err1 != nil || err2 != nil {
		return violationf(name, seed, "ECO state construction: %v / %v", err1, err2)
	}
	for di, d := range s.Deltas {
		o1, e1 := eco.Apply(st1, []eco.Delta{d}, eco.Options{})
		o2, e2 := eco.Apply(st2, []eco.Delta{d}, eco.Options{Scratch: true})
		if (e1 == nil) != (e2 == nil) {
			return violationf(name, seed,
				"delta %d %s: feasibility differs: eco err=%v, scratch err=%v", di, d, e1, e2)
		}
		if e1 != nil {
			continue // consistently rejected delta
		}
		if o1.Degraded != o2.Degraded {
			return violationf(name, seed,
				"delta %d %s: degradation differs: eco=%v, scratch=%v", di, d, o1.Degraded, o2.Degraded)
		}
		if err := CompareECO(st1, st2, o1.Total, o2.Total); err != nil {
			return violationf(name, seed, "delta %d %s: %v", di, d, err)
		}
	}
	return nil
}

// CompareECO is the ECO equivalence contract, shared by this oracle and the
// ECO benchmark's checked arm: the incremental arm st1 and the scratch arm
// st2 must agree on the tapping total within 1e-6 and on every committed
// position and schedule entry within 1e-9, each relative to
// max(1, |a|, |b|). It returns nil when they agree, otherwise the first
// difference.
func CompareECO(st1, st2 *eco.State, total1, total2 float64) error {
	if !within(total1, total2, 1e-6) {
		return fmt.Errorf("tapping total differs: eco %.9g vs scratch %.9g", total1, total2)
	}
	c1, c2 := st1.Circuit, st2.Circuit
	if len(c1.Cells) != len(c2.Cells) {
		return fmt.Errorf("cell count %d (eco) vs %d (scratch)", len(c1.Cells), len(c2.Cells))
	}
	for i := range c1.Cells {
		p1, p2 := c1.Cells[i].Pos, c2.Cells[i].Pos
		if !within(p1.X, p2.X, 1e-9) || !within(p1.Y, p2.Y, 1e-9) {
			return fmt.Errorf("cell %d placed at %v (eco) vs %v (scratch)", i, p1, p2)
		}
	}
	if len(st1.Sched) != len(st2.Sched) {
		return fmt.Errorf("schedule length %d (eco) vs %d (scratch)", len(st1.Sched), len(st2.Sched))
	}
	for i := range st1.Sched {
		if !within(st1.Sched[i], st2.Sched[i], 1e-9) {
			return fmt.Errorf("schedule[%d] = %.12g (eco) vs %.12g (scratch), diff %.3g",
				i, st1.Sched[i], st2.Sched[i], math.Abs(st1.Sched[i]-st2.Sched[i]))
		}
	}
	return nil
}

// within reports |a-b| <= tol * max(1, |a|, |b|). NaN on either side never
// compares close.
func within(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// shrinkECO minimizes a failing ECO spec by greedily dropping deltas while
// the violation persists. Dropping a delta can invalidate a later one, but
// an invalid delta fails consistently in both arms (never a violation), so
// such drops simply don't stick.
func shrinkECO(in *ECOSpec, fails func(*ECOSpec) bool) *ECOSpec {
	cur := in.clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Deltas) && len(cur.Deltas) > 1; i++ {
			cand := cur.clone()
			cand.Deltas = append(cand.Deltas[:i], cand.Deltas[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	return cur
}
