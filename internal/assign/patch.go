// Incremental re-assignment for the ECO flow: instead of solving the Fig. 4
// min-cost flow from scratch after a small edit, the previous assignment is
// preloaded onto a fresh residual network, negative residual cycles (stale
// routing exposed by the edit) are canceled away, and only the edited
// flip-flops are routed by successive shortest paths. Cycle canceling makes
// the preloaded flow minimum-cost for its value, and successive shortest
// paths preserve that invariant at every augmentation, so the patched
// assignment reaches the same optimum a scratch solve does — the property
// the ECO-vs-scratch oracle checks to 1e-6.
package assign

import (
	"errors"
	"fmt"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/mcmf"
)

// PatchMinCost solves the Section V min-cost assignment warm-started from a
// previous solution. prevRing holds each flip-flop's prior ring (any
// negative value: no usable prior, route from scratch); dirty lists
// flip-flop indices whose prior must be discarded even if still plausible
// (moved, retargeted, or rescheduled flip-flops). Clean flip-flops whose
// prior ring is no longer a candidate, or whose ring is already full, are
// demoted to dirty rather than erroring.
//
// The result is cost-equal to MinCost on the same Problem (the assignment
// itself may differ when optima tie). If cycle canceling fails to converge
// (mcmf.ErrCancelLimit — numerically pathological costs), the patch falls
// back to a cold MinCost solve; stop-token errors propagate unchanged.
func PatchMinCost(p *Problem, prevRing []int, dirty []int) (*Assignment, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	if len(prevRing) != len(p.FFs) {
		return nil, fmt.Errorf("assign: patch: %d previous rings for %d flip-flops", len(prevRing), len(p.FFs))
	}
	cands, err := p.candidates()
	if err != nil {
		return nil, err
	}
	reg := p.obsReg
	reg.Add("assign.patch.calls", 1)

	if faultinject.Hook(faultinject.SiteAssignPatch) != nil {
		// Injected corruption: return each flip-flop's most expensive
		// candidate — a structurally valid but deliberately non-optimal
		// assignment, the silent-wrong-answer failure mode the differential
		// oracle must detect (it carries no error for the caller to see).
		choice := make([]candidate, len(cands))
		for i, cs := range cands {
			choice[i] = cs[len(cs)-1]
		}
		return p.finish(choice), nil
	}

	isDirty := make([]bool, len(p.FFs))
	for _, i := range dirty {
		if i >= 0 && i < len(isDirty) {
			isDirty[i] = true
		}
	}

	nFF, nR := len(p.FFs), len(p.Array.Rings)
	net := p.network(cands)
	g := net.g

	// Preload the clean flip-flops along their previous rings, respecting
	// the (possibly changed) capacities; anything that no longer fits routes
	// with the dirty set instead.
	used := make([]int, nR)
	preloaded := 0
	for i := range p.FFs {
		if isDirty[i] {
			continue
		}
		j := prevRing[i]
		if j < 0 || j >= nR || used[j] >= p.Capacity[j] {
			isDirty[i] = true
			continue
		}
		arc := mcmf.ArcID(-1)
		for k, c := range cands[i] {
			if c.ring == j {
				arc = net.cand[i][k]
				break
			}
		}
		if arc < 0 {
			isDirty[i] = true
			continue
		}
		g.Push(net.src[i], 1)
		g.Push(arc, 1)
		g.Push(net.sink[j], 1)
		used[j]++
		preloaded++
	}
	reg.Add("assign.patch.preloaded", int64(preloaded))
	reg.Add("assign.patch.dirty", int64(nFF-preloaded))

	canceled, _, err := g.CancelNegativeCycles()
	if err != nil {
		if errors.Is(err, mcmf.ErrCancelLimit) {
			reg.Add("assign.patch.coldfall", 1)
			return MinCost(p)
		}
		return nil, fmt.Errorf("assign: patch: %w", err)
	}
	reg.Add("assign.patch.cycles", int64(canceled))

	deficit := nFF - preloaded
	if deficit > 0 {
		flow, _, err := g.MinCostFlow(fig4Source, fig4Target, deficit)
		if err != nil {
			return nil, fmt.Errorf("assign: patch flow solve: %w", err)
		}
		if flow < deficit {
			return nil, fmt.Errorf("assign: patch: only %d of %d flip-flops assignable under capacities (increase K or capacity): %w", preloaded+flow, nFF, ErrInfeasible)
		}
	}
	choice, err := net.chosen(cands)
	if err != nil {
		return nil, fmt.Errorf("assign: patch: %w", err)
	}
	return p.finish(choice), nil
}
