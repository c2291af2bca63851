// Package mcmf implements min-cost max-flow (successive shortest paths with
// Johnson potentials) and min-cost circulation. The paper uses min-cost flow
// for the flip-flop-to-ring assignment of Section V (Fig. 4); the
// circulation solver additionally powers the weighted-sum skew optimization
// of Section VII through linear programming duality.
//
// Error discipline: solve methods return errors for conditions determined by
// the caller-supplied graph (a negative cycle makes the min-cost objective
// unbounded; a circulation whose saturated excess cannot be rerouted is not
// a circulation instance). Panics are reserved for API misuse that is a bug
// in the calling code regardless of data — AddArc with out-of-range nodes or
// negative capacity — and for violations of the solver's own potential
// invariant.
package mcmf

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// ErrNegativeCycle reports that the input graph contains a reachable
// negative-cost cycle, making the min-cost objective unbounded.
var ErrNegativeCycle = errors.New("mcmf: negative-cost cycle in input graph")

// ErrExcessStranded reports that a MinCostCirculation instance saturated
// negative arcs whose excess could not be rerouted; the input was not a
// valid circulation instance.
var ErrExcessStranded = errors.New("mcmf: circulation excess could not be rerouted")

// ArcID identifies an arc returned by AddArc.
type ArcID int

type arc struct {
	to   int
	cap  int // residual capacity
	cost float64
}

// Graph is a directed flow network with integer capacities and float costs.
// Arcs are stored with their residual twins at index ^1.
type Graph struct {
	n    int
	arcs []arc
	adj  [][]int32 // node -> arc indices
	pot  []float64 // Johnson potentials
	orig []int     // original capacity per forward arc (even indices)

	// Obs receives solver telemetry (augmenting paths, shortest-path edge
	// relaxations, units pushed). Nil falls back to the armed global
	// registry; disarmed costs one atomic load per MinCostFlow call.
	Obs *obs.Registry

	// Stop is the cooperative cancellation token, checked once per
	// augmenting path and once per Bellman-Ford potential round. Nil never
	// stops. A fired token aborts the solve with an error wrapping the stop
	// sentinel; the flow routed so far stays on the arcs (it is a valid
	// partial flow, just not maximal or cost-optimal).
	Stop *stop.Token
}

// NewGraph returns a graph with n nodes (0..n-1).
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int32, n)}
}

// AddNode appends a node and returns its index.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// NumNodes returns the current node count.
func (g *Graph) NumNodes() int { return g.n }

// AddArc adds a directed arc u->v with the given capacity and per-unit cost,
// returning its ID. Capacity must be non-negative.
func (g *Graph) AddArc(u, v, capacity int, cost float64) ArcID {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mcmf: arc (%d,%d) out of range (n=%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("mcmf: negative capacity")
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: v, cap: capacity, cost: cost})
	g.arcs = append(g.arcs, arc{to: u, cap: 0, cost: -cost})
	g.adj[u] = append(g.adj[u], int32(id))
	g.adj[v] = append(g.adj[v], int32(id+1))
	g.orig = append(g.orig, capacity)
	return ArcID(id)
}

// Flow returns the flow currently routed through arc a.
func (g *Graph) Flow(a ArcID) int {
	return g.arcs[int(a)^1].cap
}

// Cost returns the per-unit cost of arc a.
func (g *Graph) Cost(a ArcID) float64 { return g.arcs[a].cost }

// Capacity returns the original capacity of arc a.
func (g *Graph) Capacity(a ArcID) int { return g.orig[int(a)/2] }

type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// dijkstra computes shortest reduced-cost distances from s. Reduced costs
// must be non-negative (guaranteed by the potential invariant). It returns
// dist and the predecessor arc per node (-1 if unreached).
func (g *Graph) dijkstra(s int) (dist []float64, prev []int32, relaxed int) {
	dist = make([]float64, g.n)
	prev = make([]int32, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	h := &pq{{node: s}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, ai := range g.adj[u] {
			a := &g.arcs[ai]
			if a.cap <= 0 || done[a.to] {
				continue
			}
			rc := a.cost + g.pot[u] - g.pot[a.to]
			if rc < 0 {
				// Tiny negative reduced costs arise from float rounding;
				// clamp them so Dijkstra stays correct.
				if rc < -1e-6 {
					panic(fmt.Sprintf("mcmf: negative reduced cost %v on arc %d", rc, ai))
				}
				rc = 0
			}
			if nd := dist[u] + rc; nd < dist[a.to]-1e-15 {
				dist[a.to] = nd
				prev[a.to] = ai
				relaxed++
				heap.Push(h, pqItem{node: a.to, dist: nd})
			}
		}
	}
	return dist, prev, relaxed
}

// bellmanFord initializes potentials when negative-cost arcs are present.
// It returns false if a negative cycle is reachable (costs unbounded).
func (g *Graph) bellmanFord() (ok bool, relaxed int, err error) {
	for i := range g.pot {
		g.pot[i] = 0
	}
	for iter := 0; iter < g.n; iter++ {
		if err := stop.Check(g.Stop, faultinject.SiteMcmfPathCancel); err != nil {
			return false, relaxed, fmt.Errorf("mcmf: potential initialization: %w", err)
		}
		_, r := g.relaxRound(g.pot, nil, 1e-12)
		relaxed += r
		if r == 0 {
			return true, relaxed, nil
		}
	}
	return false, relaxed, nil
}

// relaxRound is one Bellman-Ford round over the residual graph, the kernel
// behind potential initialization, residual distances and negative-cycle
// detection: every arc with residual capacity out of a reached node (dist
// not +Inf) lowers the distance of its head when that beats the current
// value by more than tol, recording the arc in prev when prev is non-nil.
// It returns the last node improved (-1 if none) and the improvement count.
func (g *Graph) relaxRound(dist []float64, prev []int32, tol float64) (last, improved int) {
	last = -1
	for u := 0; u < g.n; u++ {
		if math.IsInf(dist[u], 1) {
			continue
		}
		for _, ai := range g.adj[u] {
			a := &g.arcs[ai]
			if a.cap <= 0 {
				continue
			}
			if nd := dist[u] + a.cost; nd < dist[a.to]-tol {
				dist[a.to] = nd
				if prev != nil {
					prev[a.to] = ai
				}
				last = a.to
				improved++
			}
		}
	}
	return last, improved
}

// MinCostFlow pushes up to maxFlow units from s to t along successive
// shortest paths, returning the flow achieved and its total cost. Pass
// maxFlow < 0 for max flow. Arc costs must be non-negative unless
// negative-cost arcs were neutralized beforehand (see MinCostCirculation);
// a reachable negative cycle returns ErrNegativeCycle.
func (g *Graph) MinCostFlow(s, t, maxFlow int) (flow int, cost float64, err error) {
	if err := faultinject.Hook(faultinject.SiteMcmfMinCostFlow); err != nil {
		return 0, 0, err
	}
	if s == t {
		return 0, 0, nil
	}
	if maxFlow < 0 {
		maxFlow = math.MaxInt64 / 4
	}
	// Telemetry accumulates locally and records once at exit; the search
	// loops stay lock-free.
	paths, relaxed := 0, 0
	if reg := obs.Resolve(g.Obs); reg != nil {
		defer func() {
			reg.Add("mcmf.solves", 1)
			reg.Add("mcmf.paths", int64(paths))
			reg.Add("mcmf.relaxations", int64(relaxed))
			reg.Add("mcmf.flow", int64(flow))
		}()
	}
	g.pot = make([]float64, g.n)
	hasNeg := false
	for i := range g.arcs {
		if g.arcs[i].cap > 0 && g.arcs[i].cost < 0 {
			hasNeg = true
			break
		}
	}
	if hasNeg {
		ok, r, berr := g.bellmanFord()
		relaxed += r
		if berr != nil {
			return 0, 0, berr
		}
		if !ok {
			return 0, 0, ErrNegativeCycle
		}
	}
	for flow < maxFlow {
		if cerr := stop.Check(g.Stop, faultinject.SiteMcmfPathCancel); cerr != nil {
			return flow, cost, fmt.Errorf("mcmf: augmenting-path search: %w", cerr)
		}
		dist, prev, r := g.dijkstra(s)
		relaxed += r
		if prev[t] < 0 {
			break
		}
		// Bottleneck along the path.
		push := maxFlow - flow
		for v := t; v != s; {
			a := &g.arcs[prev[v]]
			if a.cap < push {
				push = a.cap
			}
			v = g.arcs[int(prev[v])^1].to
		}
		for v := t; v != s; {
			ai := prev[v]
			g.arcs[ai].cap -= push
			g.arcs[int(ai)^1].cap += push
			cost += float64(push) * g.arcs[ai].cost
			v = g.arcs[int(ai)^1].to
		}
		flow += push
		paths++
		// Update potentials; unreachable nodes keep their old potential.
		for v := 0; v < g.n; v++ {
			if !math.IsInf(dist[v], 1) {
				g.pot[v] += dist[v]
			}
		}
	}
	return flow, cost, nil
}

// MinCostMaxFlow routes the maximum flow from s to t at minimum cost.
func (g *Graph) MinCostMaxFlow(s, t int) (flow int, cost float64, err error) {
	return g.MinCostFlow(s, t, -1)
}

// MinCostCirculation finds a minimum-cost circulation: a flow with
// conservation at every node, exploiting negative-cost arcs. It returns the
// (non-positive) optimal cost. The standard transformation saturates all
// negative arcs and reroutes the resulting excesses via a min-cost flow on
// the residual graph, whose costs are then all non-negative. Inputs that are
// not valid circulation instances return ErrExcessStranded.
func (g *Graph) MinCostCirculation() (float64, error) {
	excess := make([]float64, g.n)
	cost := 0.0
	for ai := 0; ai < len(g.arcs); ai += 2 {
		a := &g.arcs[ai]
		if a.cost >= 0 || a.cap <= 0 {
			continue
		}
		c := a.cap
		from := g.arcs[ai^1].to
		cost += float64(c) * a.cost
		excess[a.to] += float64(c)
		excess[from] -= float64(c)
		g.arcs[ai^1].cap += c
		a.cap = 0
	}
	s := g.AddNode()
	t := g.AddNode()
	need := 0
	for v := 0; v < g.n-2; v++ {
		switch {
		case excess[v] > 0.5:
			g.AddArc(s, v, int(excess[v]+0.5), 0)
			need += int(excess[v] + 0.5)
		case excess[v] < -0.5:
			g.AddArc(v, t, int(-excess[v]+0.5), 0)
		}
	}
	flow, c2, err := g.MinCostMaxFlow(s, t)
	if err != nil {
		return 0, err
	}
	if flow < need {
		// Leftover excess means some negative arcs cannot be fully used;
		// this cannot happen in a circulation instance built from finite
		// capacities, so reject the input.
		return 0, ErrExcessStranded
	}
	return cost + c2, nil
}

// ResidualDistances returns Bellman-Ford shortest-path distances from src
// over the residual graph of the current flow. At a min-cost optimum the
// residual graph has no negative cycles, so the distances are well-defined;
// they are the LP dual potentials used to recover primal variables in
// dual-of-min-cost-flow problems (see the skew package). Unreachable nodes
// get +Inf. It returns ok=false if a negative residual cycle is detected
// (the flow was not optimal).
func (g *Graph) ResidualDistances(src int) (dist []float64, ok bool) {
	dist = make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter <= g.n; iter++ {
		if _, r := g.relaxRound(dist, nil, 1e-9); r == 0 {
			return dist, true
		}
	}
	return dist, false
}

// TotalCost returns the cost of the current flow (sum over forward arcs).
func (g *Graph) TotalCost() float64 {
	c := 0.0
	for ai := 0; ai < len(g.arcs); ai += 2 {
		f := g.arcs[ai^1].cap // flow = reverse residual, valid for arcs added via AddArc
		if f > 0 {
			c += float64(f) * g.arcs[ai].cost
		}
	}
	return c
}
