// Residual-flow primitives for incremental (ECO-style) re-solves: preloading
// a known-good partial flow onto a freshly built graph and restoring
// optimality by canceling negative-cost residual cycles, so a caller can
// patch a previously optimal solution instead of solving from scratch.
package mcmf

import (
	"errors"
	"fmt"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// ErrCancelLimit reports that CancelNegativeCycles hit its iteration safety
// bound before the residual graph went clean; callers should fall back to a
// from-scratch solve.
var ErrCancelLimit = errors.New("mcmf: negative-cycle canceling did not converge")

// Push preloads units of flow onto arc a, debiting its residual capacity and
// crediting its twin. It is the primitive for warm-starting a solve from a
// previous solution: the caller re-routes a known flow arc by arc and then
// restores optimality with CancelNegativeCycles before augmenting further.
// The caller is responsible for conservation (pushing whole source-to-sink
// paths); Push itself only moves capacity. Out-of-range arcs, negative
// units, and units exceeding the arc's residual capacity panic — all three
// are caller bugs, not instance properties.
func (g *Graph) Push(a ArcID, units int) {
	if int(a) < 0 || int(a) >= len(g.arcs) {
		panic(fmt.Sprintf("mcmf: push on arc %d out of range (%d arcs)", a, len(g.arcs)))
	}
	if units < 0 {
		panic("mcmf: push of negative units")
	}
	if units > g.arcs[a].cap {
		panic(fmt.Sprintf("mcmf: push of %d units exceeds residual capacity %d on arc %d", units, g.arcs[a].cap, a))
	}
	g.arcs[a].cap -= units
	g.arcs[int(a)^1].cap += units
}

// CancelNegativeCycles restores min-cost optimality of the current flow at
// its current value by repeatedly finding a negative-cost cycle in the
// residual graph (Bellman-Ford with predecessor walk-back) and saturating
// it. A flow with no negative residual cycle is minimum-cost among all
// flows of the same value, so after this returns the caller can continue
// with successive-shortest-path augmentation and end at the global optimum.
//
// It returns the number of cycles canceled and the (non-positive) total
// cost change. The iteration bound is a safety net against pathological
// instances; hitting it returns ErrCancelLimit and leaves a valid (but not
// cost-optimal) flow on the arcs, as does a fired stop token.
func (g *Graph) CancelNegativeCycles() (canceled int, delta float64, err error) {
	if reg := obs.Resolve(g.Obs); reg != nil {
		defer func() {
			reg.Add("mcmf.cancel.calls", 1)
			reg.Add("mcmf.cancel.cycles", int64(canceled))
		}()
	}
	// Each cancellation strictly lowers the flow cost, so termination is
	// guaranteed for integer capacities; the explicit bound only guards
	// against degenerate float-cost instances.
	limit := 64 + 4*len(g.arcs)
	dist := make([]float64, g.n)
	prevArc := make([]int32, g.n)
	for iter := 0; ; iter++ {
		if iter >= limit {
			return canceled, delta, ErrCancelLimit
		}
		if cerr := stop.Check(g.Stop, faultinject.SiteMcmfPathCancel); cerr != nil {
			return canceled, delta, fmt.Errorf("mcmf: cycle canceling: %w", cerr)
		}
		// Bellman-Ford from a virtual source (all distances zero). If the
		// n-th relaxation round still improves some node, that node's
		// predecessor chain contains a negative cycle.
		for i := range dist {
			dist[i] = 0
			prevArc[i] = -1
		}
		witness := -1
		for round := 0; round < g.n; round++ {
			changed, _ := g.relaxRound(dist, prevArc, 1e-12)
			if changed < 0 {
				return canceled, delta, nil
			}
			witness = changed
		}
		// Walk n predecessor steps to land strictly inside the cycle, then
		// collect its arcs.
		v := witness
		for i := 0; i < g.n; i++ {
			v = g.arcs[int(prevArc[v])^1].to
		}
		var cycle []int32
		push := 0
		for u := v; ; {
			ai := prevArc[u]
			cycle = append(cycle, ai)
			if push == 0 || g.arcs[ai].cap < push {
				push = g.arcs[ai].cap
			}
			u = g.arcs[int(ai)^1].to
			if u == v {
				break
			}
		}
		for _, ai := range cycle {
			g.arcs[ai].cap -= push
			g.arcs[int(ai)^1].cap += push
			delta += float64(push) * g.arcs[ai].cost
		}
		canceled++
	}
}
