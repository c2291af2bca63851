package skew

import (
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/stop"
)

// minCycleMean computes the minimum mean weight over all directed cycles of
// the constraint graph (edges V -> U with weight Bound for each constraint
// t_U - t_V <= Bound), using Karp's O(n*m) dynamic program. It returns
// +Inf when the graph is acyclic. The stop token (nil for none) is checked
// once per DP row (each row is O(m) work).
//
// This is the heart of the exact graph-based max-slack solver: every
// Fishburn constraint bound shrinks by exactly one unit per unit of slack M,
// so the system is feasible iff M is at most the minimum cycle mean of the
// M=0 constraint graph (the classic Albrecht/Korte/Schietke/Vygen view of
// cycle-time optimization).
func minCycleMean(tok *stop.Token, n int, cons []DiffConstraint) (float64, error) {
	if n == 0 || len(cons) == 0 {
		return math.Inf(1), nil
	}
	type edge struct {
		from, to int
		w        float64
	}
	edges := make([]edge, 0, len(cons))
	for _, c := range cons {
		// Relaxation edge V -> U with weight Bound (see relax).
		edges = append(edges, edge{from: c.V, to: c.U, w: c.Bound})
	}

	// Karp's DP with a virtual super-source: D[k][v] = min weight of a walk
	// with exactly k edges ending at v, starting anywhere (all D[0][v]=0,
	// which is equivalent to the super-source construction and keeps every
	// cycle reachable).
	inf := math.Inf(1)
	prev := make([]float64, n)
	cur := make([]float64, n)
	// dk[k][v] stored row by row; we need all rows for the final formula.
	rows := make([][]float64, n+1)
	rows[0] = make([]float64, n) // zeros
	for k := 1; k <= n; k++ {
		if err := stop.Check(tok, faultinject.SiteSkewIterCancel); err != nil {
			return 0, fmt.Errorf("skew: cycle-mean DP: %w", err)
		}
		for v := range cur {
			cur[v] = inf
		}
		for _, e := range edges {
			if prev[e.from] == inf && k > 1 {
				continue
			}
			base := prev[e.from]
			if k == 1 {
				base = 0
			} else if math.IsInf(base, 1) {
				continue
			}
			if w := base + e.w; w < cur[e.to] {
				cur[e.to] = w
			}
		}
		rows[k] = append([]float64(nil), cur...)
		prev, cur = cur, prev
		copy(prev, rows[k])
	}

	best := inf
	dn := rows[n]
	for v := 0; v < n; v++ {
		if math.IsInf(dn[v], 1) {
			continue // no n-edge walk ends here; v is not on a long cycle path
		}
		worst := math.Inf(-1)
		for k := 0; k < n; k++ {
			dk := rows[k][v]
			if math.IsInf(dk, 1) {
				continue
			}
			if r := (dn[v] - dk) / float64(n-k); r > worst {
				worst = r
			}
		}
		if !math.IsInf(worst, -1) && worst < best {
			best = worst
		}
	}
	return best, nil
}

// MaxSlackExact computes the maximum slack directly as the minimum cycle
// mean of the M=0 constraint graph (no binary search), then recovers a
// schedule at that slack. It matches MaxSlack to within numerical tolerance
// and is asymptotically faster (one O(n*m) pass instead of O(log(1/eps))
// Bellman-Ford runs).
func MaxSlackExact(n int, pairs []SeqPair, T, setup, hold float64) (float64, []float64, error) {
	return MaxSlackExactStop(nil, n, pairs, T, setup, hold)
}

// MaxSlackExactStop is MaxSlackExact with a cooperative stop token, checked
// once per Karp DP row and once per Bellman-Ford round of the recovery
// probes. A fired token aborts with an error wrapping the stop sentinel; no
// partial schedule is returned (the caller keeps its previous schedule as
// the best-so-far).
func MaxSlackExactStop(tok *stop.Token, n int, pairs []SeqPair, T, setup, hold float64) (float64, []float64, error) {
	if err := faultinject.Hook(faultinject.SiteSkewMaxSlack); err != nil {
		return 0, nil, err
	}
	base := Constraints(pairs, T, 0, setup, hold)
	m, err := minCycleMean(tok, n, base)
	if err != nil {
		return 0, nil, err
	}
	if math.IsInf(m, 1) {
		m = T // acyclic constraint graph: slack capped like MaxSlack's hi
	}
	// Self-loop constraints (U == V) are cycles of length 1 that Karp's DP
	// covers naturally; still, guard the recovered schedule with a
	// feasibility check, backing off by a tiny epsilon for float safety.
	for _, eps := range []float64{0, 1e-9, 1e-6, 1e-3} {
		t, ok, err := feasible(tok, n, Constraints(pairs, T, m-eps, setup, hold))
		if err != nil {
			return 0, nil, err
		}
		if ok {
			return m - eps, t, nil
		}
	}
	// Extremely ill-conditioned input: fall back to the binary search.
	return MaxSlack(tok, n, pairs, T, setup, hold, 1e-6)
}
