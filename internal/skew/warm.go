package skew

import (
	"fmt"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/stop"
)

// WarmStart re-checks a previous schedule against an (edited) constraint
// system and minimally repairs it: Bellman-Ford relaxation initialized from
// the seed instead of zeros, so entries only move when a constraint forces
// them, and a seed that already satisfies every constraint comes back
// bit-identical after a single O(m) verification round — the bounded
// "re-check only the edited rows" pass of the ECO flow. The result is NOT
// re-normalized (the seed's absolute frame is part of its meaning: tapping
// targets were derived in it).
//
// The relaxation fixpoint from a given seed is the pointwise infimum over
// constraint paths, which is order-independent, so two calls with equal
// inputs return bit-identical schedules regardless of how the edits were
// batched. It returns the repaired schedule, the number of relaxation
// rounds, and ok=false when the system is infeasible (negative constraint
// cycle); the seed is never mutated. A seed of the wrong length or a
// constraint referencing variables outside [0,n) panics, matching Feasible.
//
// The optional stop token (nil for none) is checked once per relaxation
// round. A fired token abandons the repair and reports the stop error; the
// partial vector is not a certificate and is discarded.
func WarmStart(tok *stop.Token, n int, cons []DiffConstraint, seed []float64) ([]float64, int, bool, error) {
	if len(seed) != n {
		panic(fmt.Sprintf("skew: warm start seed has %d entries for %d variables", len(seed), n))
	}
	dist := make([]float64, n)
	copy(dist, seed)
	for iter := 0; iter <= n; iter++ {
		if err := stop.Check(tok, faultinject.SiteSkewIterCancel); err != nil {
			return nil, iter, false, fmt.Errorf("skew: warm-start repair: %w", err)
		}
		changed := false
		for _, c := range cons {
			if c.U < 0 || c.U >= n || c.V < 0 || c.V >= n {
				panic(fmt.Sprintf("skew: constraint %+v out of range n=%d", c, n))
			}
			if nd := dist[c.V] + c.Bound; nd < dist[c.U]-Eps {
				dist[c.U] = nd
				changed = true
			}
		}
		if !changed {
			return dist, iter + 1, true, nil
		}
	}
	return nil, n + 1, false, nil
}
