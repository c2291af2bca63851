// Package placer is the analytical placement substrate of the flow: a
// star-model quadratic placer solved by preconditioned conjugate gradients,
// a density-equalization spreading loop, a Tetris-style row legalizer, and a
// stable incremental mode driven by pseudo-nets.
//
// It stands in for the mPL placer the paper uses: the integrated methodology
// (Fig. 3) only needs a global placer that minimizes quadratic wirelength,
// accepts pseudo-nets pulling flip-flops toward their rotary rings, and is
// stable under small netlist perturbations — all of which this package
// provides.
//
// The quadratic system is split FastPlace-style into an immutable
// connectivity part (a flat CSR Laplacian plus the base diagonal and
// right-hand sides contributed by fixed cells, assembled once per circuit by
// NewSystem) and a mutable anchor overlay (pseudo-nets, stability anchors,
// spread targets, disconnected-node regularization) that is reset and
// reapplied per re-solve. Callers that re-solve the same netlist repeatedly
// (the spread loop, the flow's stage-6 iterations) hold one System and pay
// only the overlay cost per solve; see DESIGN.md section 10 for the
// bit-identity argument.
//
// Error discipline: invalid circuits (empty die) return errors, and a
// conjugate-gradient solve that exhausts its iteration budget with the
// residual still above tolerance returns an error wrapping ErrNonConverged —
// best-effort positions are written to the circuit first, so callers may
// either accept them or retry with a looser CGTol. The package never panics
// on caller input.
package placer

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/par"
	"rotaryclk/internal/stop"
)

// ErrNonConverged reports that the final quadratic solve stopped on its
// iteration budget (or a numerical breakdown) with the residual still above
// CGTol. The circuit holds the best-effort positions reached; callers match
// this with errors.Is to retry with a looser tolerance or accept the result.
var ErrNonConverged = errors.New("placer: conjugate gradients did not converge")

// PseudoNet pulls one cell toward a fixed target point with the given
// weight. The flow inserts one per flip-flop, anchored at its assigned
// ring's tapping point (Section IV stage 5).
type PseudoNet struct {
	Cell   int
	Target geom.Point
	Weight float64
}

// Fixed schedule constants of the placer. No caller tunes them; they were
// Options fields once and keep the values those fields defaulted to.
const (
	// spreadAlpha scales the spreading anchor weight per iteration (larger
	// converges faster but hurts wirelength).
	spreadAlpha = 0.05
	// cgMaxIter is the conjugate-gradients iteration budget per solve.
	cgMaxIter = 600
	// cgTol is the default relative residual tolerance of a solve
	// (Options.CGTol) and the fixed one of the dirty-region solves.
	cgTol = 1e-6
	// mlRefine is the number of equalize+re-solve rounds per level on the
	// multilevel V-cycle's way back down.
	mlRefine = 2
	// stabilityWeight is the anchor weight holding every movable cell near
	// its current position in incremental and dirty-region solves.
	stabilityWeight = 6.0
	// regWeight is the weak die-center anchor that keeps a fully
	// disconnected unknown's row positive definite.
	regWeight = 1e-3
)

// Options tunes the placer.
type Options struct {
	// SpreadIters is the number of density-equalization + re-solve rounds
	// of global placement (default 24, locked by TestOptionsDefaults).
	SpreadIters int
	// PseudoNets are the flip-flop anchor nets.
	PseudoNets []PseudoNet
	// NetWeights, when non-empty, scales every term net i contributes to the
	// quadratic system (edge weights, star weights, fixed-pin anchors) by
	// NetWeights[i] — the timing-driven criticality overlay. Indices beyond
	// the slice scale at 1. Empty/nil uses the immutable base weights
	// untouched; a vector of all-1.0 is bit-identical to that path (the
	// contract TestNetWeightIdentity locks).
	NetWeights []float64
	// CGTol is the linear solver's relative residual tolerance (default
	// 1e-6).
	CGTol float64
	// Parallelism bounds the worker count of the CG kernels and the
	// concurrent x/y-axis solves: 0 = GOMAXPROCS, 1 = serial (no
	// goroutines). Results are bit-identical for every value — chunk
	// boundaries and reduction order are fixed (see internal/par).
	Parallelism int
	// Obs receives solver telemetry (CG solves/iterations counters, exit
	// residual gauge, system build/reuse counters). Nil falls back to the
	// armed global registry; fully disarmed costs one atomic load per solve
	// (see internal/obs).
	Obs *obs.Registry
	// Stop is the cooperative cancellation token, checked once per CG
	// iteration. Nil never stops. A fired token aborts the solve with an
	// error wrapping the stop sentinel after writing the best-effort iterate
	// back to the circuit (same state contract as ErrNonConverged).
	Stop *stop.Token

	// Multilevel switches Global to the mPL-style V-cycle (see vcycle.go):
	// the circuit is clustered into a hierarchy of coarser circuits, fully
	// placed at the coarsest level, then interpolated down with mlRefine
	// bounded refinement rounds per level. Default off; the off path is
	// structurally unchanged (bit-identical, locked by TestMultilevelOff-
	// Identity). Instances too small or too connected to coarsen fall back
	// to the flat path (placer.ml.fallback counter). Incremental and ECO
	// dirty-region solves never enter the V-cycle.
	Multilevel bool
	// MLCoarsest is the movable-cell count at which coarsening stops and
	// the full spreading schedule runs (default 2500).
	MLCoarsest int

	// bins is the spreading grid resolution per axis, derived by normalize
	// from the solve's movable cell count.
	bins int
	// rebuildEachSolve (test-only) assembles a fresh System before every
	// re-solve, reproducing the pre-reuse rebuild-every-time path so tests
	// can assert the two paths are bit-identical.
	rebuildEachSolve bool
}

func (o *Options) normalize(movable int) {
	if o.SpreadIters <= 0 {
		o.SpreadIters = 24
	}
	o.bins = int(math.Max(4, math.Sqrt(float64(movable)/4)))
	if o.CGTol <= 0 {
		o.CGTol = cgTol
	}
	if o.MLCoarsest <= 0 {
		o.MLCoarsest = 2500
	}
}

// System is the reusable sparse SPD system of a circuit's quadratic
// placement. The connectivity part — the CSR Laplacian off-diagonal
// (rowStart/cols/w) and the base diagonal and right-hand sides contributed
// by net edges and fixed-cell anchors — is assembled once from the netlist
// and never mutated; every re-solve resets the working diag/bx/by from it
// and reapplies the per-solve anchor overlay. The x and y dimensions share
// the structure but have separate right-hand sides.
//
// A System stays valid as long as the circuit's connectivity (cells, nets,
// Fixed flags, fixed-cell positions, die) is unchanged; cell position
// updates are picked up at the next solve. It is not safe for concurrent
// use.
type System struct {
	c    *netlist.Circuit
	n    int // unknowns: movable cells + star nodes
	nMov int

	// Immutable connectivity, built once by NewSystem.
	rowStart []int32   // CSR row offsets, len n+1
	cols     []int32   // neighbor indices, row-major
	w        []float64 // neighbor weights, parallel to cols
	baseDiag []float64
	baseBx   []float64
	baseBy   []float64
	starRow  []int32 // star index -> offset into starPin, len nStar+1
	starPin  []int32 // pin cell IDs per star net, in net order
	cells    []int   // unknown index -> cell ID (star nodes: -1)
	idx      map[int]int

	// Mutable per-solve state (diag, bx, by, posX, posY), allocated by
	// withSolveState and reset by prepare.
	diagRHS
	posX []float64
	posY []float64

	// Net-weight overlay (Options.NetWeights). wcur is the weight array the
	// CG kernels read: s.w on the untouched path, wScaled (a lazily
	// allocated scratch refilled by applyNetWeights) when a scale vector is
	// in effect. rowNext is the replay's per-row fill cursor scratch.
	wcur    []float64
	wScaled []float64
	rowNext []int32

	obs *obs.Registry // resolved per call; nil when disarmed
}

// diagRHS is the diagonal and the two right-hand sides of a system: the
// parts an anchor term touches.
type diagRHS struct {
	diag, bx, by []float64
}

// anchor accumulates one anchor term: unknown i pulled toward p at weight w.
func (d diagRHS) anchor(i int, p geom.Point, w float64) {
	d.diag[i] += w
	d.bx[i] += w * p.X
	d.by[i] += w * p.Y
}

// regularize anchors unknown i weakly at the die center when nothing else
// touches its row, so the system stays positive definite.
func (d diagRHS) regularize(i int, center geom.Point) {
	if d.diag[i] == 0 {
		d.anchor(i, center, regWeight)
	}
}

// base returns the immutable base diagonal and right-hand sides.
func (s *System) base() diagRHS { return diagRHS{s.baseDiag, s.baseBx, s.baseBy} }

// withSolveState gives s fresh per-solve working arrays for its n unknowns
// and returns it.
func (s *System) withSolveState() *System {
	n := s.n
	s.diagRHS = diagRHS{make([]float64, n), make([]float64, n), make([]float64, n)}
	s.posX = make([]float64, n)
	s.posY = make([]float64, n)
	s.wcur = s.w
	return s
}

// termSink receives the matrix terms netTerms emits.
type termSink interface {
	// edge couples unknowns i and j at weight w.
	edge(i, j int, w float64)
	// anchor pulls unknown i toward the fixed point p at weight w.
	anchor(i int, p geom.Point, w float64)
}

// netTerms emits the terms of one net, every weight scaled by f. It is the
// placer's one net model: NewSystem assembles it, the NetWeights overlay
// rescales it and PatchNet recomputes edited rows from it. A 2-pin net is
// an edge between its movable pins at weight f or, when one pin is fixed,
// an anchor of the movable pin at the fixed one. A k-pin net (k >= 3) is a
// star: every pin ties to star node star at weight k/(k-1)/2*f, a movable
// pin by an edge and a fixed pin by an anchor of the star. Nets with fewer
// than 2 pins emit nothing.
func (s *System) netTerms(pins []int, star int, f float64, t termSink) {
	switch k := len(pins); {
	case k == 2:
		a, b := pins[0], pins[1]
		ia, aOK := s.idx[a]
		ib, bOK := s.idx[b]
		switch {
		case aOK && bOK:
			t.edge(ia, ib, f)
		case aOK:
			t.anchor(ia, s.c.Cells[b].Pos, f)
		case bOK:
			t.anchor(ib, s.c.Cells[a].Pos, f)
		}
	case k >= 3:
		w := float64(k) / float64(k-1) / 2 * f
		for _, pid := range pins {
			if ip, ok := s.idx[pid]; ok {
				t.edge(ip, star, w)
			} else {
				t.anchor(star, s.c.Cells[pid].Pos, w)
			}
		}
	}
}

// allTerms emits the terms of every net in net-ID order, net ni scaled by
// scale(ni), with star nodes numbered from nMov in the same order.
func (s *System) allTerms(scale func(ni int) float64, t termSink) {
	star := s.nMov
	for ni, net := range s.c.Nets {
		s.netTerms(net.Pins, star, scale(ni), t)
		if len(net.Pins) >= 3 {
			star++
		}
	}
}

func unitScale(int) float64 { return 1 }

// degrees counts CSR entries per row: an edge adds one to each endpoint's
// row, an anchor none.
type degrees []int32

func (d degrees) edge(i, j int, _ float64) {
	d[i]++
	d[j]++
}

func (degrees) anchor(int, geom.Point, float64) {}

// rowFill writes emitted terms into CSR rows: a term adds its weight to its
// row's diagonal (an anchor also to the right-hand sides), and an edge
// writes the neighbor into the next free slot of each endpoint's row. With
// nil cols only the weights are written — the column layout is already in
// place.
type rowFill struct {
	diagRHS
	cols []int32
	w    []float64
	next []int32 // per-row fill cursor
}

func (f *rowFill) edge(i, j int, w float64) {
	f.put(i, j, w)
	f.put(j, i, w)
}

func (f *rowFill) put(i, j int, w float64) {
	f.diag[i] += w
	if f.cols != nil {
		f.cols[f.next[i]] = int32(j)
	}
	f.w[f.next[i]] = w
	f.next[i]++
}

// oneRow passes on only the terms that land in row i.
type oneRow struct {
	f *rowFill
	i int
}

func (r oneRow) edge(i, j int, w float64) {
	if i == r.i {
		r.f.put(i, j, w)
	}
	if j == r.i {
		r.f.put(j, i, w)
	}
}

func (r oneRow) anchor(i int, p geom.Point, w float64) {
	if i == r.i {
		r.f.anchor(i, p, w)
	}
}

// NewSystem assembles the immutable connectivity part of the circuit's
// quadratic system: movable cells come first, then one star node per net
// with 3+ pins. The registry (nil falls back to the armed global one)
// receives the placer.system.builds counter.
func NewSystem(c *netlist.Circuit, reg *obs.Registry) (*System, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	idx := map[int]int{} // cell ID -> unknown index
	var cells []int
	for _, cell := range c.Cells {
		if !cell.Fixed {
			idx[cell.ID] = len(cells)
			cells = append(cells, cell.ID)
		}
	}
	nMov := len(cells)
	// One star node per 3+-pin net, in net order, with its pin list so
	// prepare can re-seed the star at its pins' current centroid before
	// every solve.
	starRow := []int32{0}
	var starPin []int32
	for _, net := range c.Nets {
		if len(net.Pins) >= 3 {
			for _, pid := range net.Pins {
				starPin = append(starPin, int32(pid))
			}
			starRow = append(starRow, int32(len(starPin)))
			cells = append(cells, -1)
		}
	}
	n := len(cells)
	s := &System{
		c:        c,
		n:        n,
		nMov:     nMov,
		baseDiag: make([]float64, n),
		baseBx:   make([]float64, n),
		baseBy:   make([]float64, n),
		starRow:  starRow,
		starPin:  starPin,
		cells:    cells,
		idx:      idx,
		obs:      obs.Resolve(reg),
	}

	// Counting pass sizes the rows; the fill pass then walks the nets in the
	// same order, so per-row neighbor order and the base diag/bx/by
	// accumulation order match the historical slice-of-slices build exactly
	// (the bit-identity contract of DESIGN.md section 10).
	deg := make(degrees, n)
	s.allTerms(unitScale, deg)
	s.rowStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		s.rowStart[i+1] = s.rowStart[i] + deg[i]
	}
	total := int(s.rowStart[n])
	s.cols = make([]int32, total)
	s.w = make([]float64, total)
	next := make([]int32, n)
	copy(next, s.rowStart[:n])
	s.allTerms(unitScale, &rowFill{diagRHS: s.base(), cols: s.cols, w: s.w, next: next})
	s.obs.Add("placer.system.builds", 1)
	return s.withSolveState(), nil
}

// Fork returns a System bound to circuit c that shares this System's
// immutable connectivity arrays (CSR Laplacian, base diagonal and right-hand
// sides, star pin lists) but carries fresh mutable per-solve state, so the
// fork and the original can solve concurrently on different goroutines.
//
// Caller contract: c must have connectivity identical to the template's
// circuit — same cells in the same order with the same Fixed flags and
// fixed-cell positions, and the same nets. The serving layer guarantees this
// by keying templates on the full generator spec (deterministic generation:
// same spec, same circuit); Fork itself only performs cheap structural
// checks and returns an error on an obvious mismatch.
//
// reg rebinds the fork's telemetry to its own registry — a serving layer
// gives each job a private one so concurrent jobs never share counters — and
// nil inherits the template's.
func (s *System) Fork(c *netlist.Circuit, reg *obs.Registry) (*System, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	if len(c.Cells) != len(s.c.Cells) || len(c.Nets) != len(s.c.Nets) {
		return nil, fmt.Errorf("placer: fork: circuit %q (%d cells, %d nets) does not match template %q (%d cells, %d nets)",
			c.Name, len(c.Cells), len(c.Nets), s.c.Name, len(s.c.Cells), len(s.c.Nets))
	}
	ns := s.shared(c).withSolveState()
	if reg != nil {
		ns.obs = reg
	}
	ns.obs.Add("placer.system.forks", 1)
	return ns, nil
}

// shared returns a System on circuit c that shares s's immutable
// connectivity and has no per-solve state yet.
func (s *System) shared(c *netlist.Circuit) *System {
	return &System{
		c:        c,
		n:        s.n,
		nMov:     s.nMov,
		rowStart: s.rowStart,
		cols:     s.cols,
		w:        s.w,
		baseDiag: s.baseDiag,
		baseBx:   s.baseBx,
		baseBy:   s.baseBy,
		starRow:  s.starRow,
		starPin:  s.starPin,
		cells:    s.cells,
		idx:      s.idx,
		obs:      s.obs,
	}
}

// seed returns where every solve starts unknown i: a movable cell's current
// position, or a star node's pin centroid at the current positions.
func (s *System) seed(i int) geom.Point {
	if i < s.nMov {
		return s.c.Cells[s.cells[i]].Pos
	}
	st := i - s.nMov
	lo, hi := s.starRow[st], s.starRow[st+1]
	var cx, cy float64
	for _, pid := range s.starPin[lo:hi] {
		pos := s.c.Cells[pid].Pos
		cx += pos.X
		cy += pos.Y
	}
	k := float64(hi - lo)
	return geom.Pt(cx/k, cy/k)
}

// prepare resets the working system to the immutable base and reapplies the
// per-solve anchor overlay in the same accumulation order the historical
// per-solve build used: positions and star seeds from the circuit, then
// opt.PseudoNets, then extra pseudo-nets at extraScale times their weight,
// then stability anchors holding every movable cell at its current position
// (when stability > 0), then the disconnected-node regularization.
//
// With opt.NetWeights set, the reset step re-emits every net's terms scaled
// instead of copying the base arrays; the immutable CSR is never mutated
// either way.
func (s *System) prepare(opt *Options, extra []PseudoNet, extraScale, stability float64) {
	s.obs.Add("placer.system.reuses", 1)
	if len(opt.NetWeights) > 0 {
		s.applyNetWeights(opt.NetWeights)
	} else {
		s.wcur = s.w
		copy(s.diag, s.baseDiag)
		copy(s.bx, s.baseBx)
		copy(s.by, s.baseBy)
	}
	for i := 0; i < s.n; i++ {
		p := s.seed(i)
		s.posX[i], s.posY[i] = p.X, p.Y
	}

	// Pseudo-nets and stability anchors.
	pull := func(nets []PseudoNet, scale float64) {
		for _, pn := range nets {
			if i, ok := s.idx[pn.Cell]; ok {
				if w := pn.Weight * scale; w > 0 {
					s.anchor(i, pn.Target, w)
				}
			}
		}
	}
	pull(opt.PseudoNets, 1)
	pull(extra, extraScale)
	if stability > 0 {
		for i := 0; i < s.nMov; i++ {
			s.anchor(i, s.seed(i), stability)
		}
	}
	center := s.c.Die.Center()
	for i := 0; i < s.n; i++ {
		s.regularize(i, center)
	}
}

// applyNetWeights rebuilds the working diag/bx/by and the scaled weight
// array by re-emitting every net's terms into the existing CSR layout, net
// i scaled by scale[i] (out-of-range indices scale at 1). The emission order
// is NewSystem's, so a scale vector of all-1.0 reproduces the base arrays
// bit-for-bit (w * 1.0 == w in IEEE 754) and therefore the untouched path's
// positions exactly.
func (s *System) applyNetWeights(scale []float64) {
	s.obs.Add("placer.system.reweights", 1)
	if s.wScaled == nil {
		s.wScaled = make([]float64, len(s.w))
		s.rowNext = make([]int32, s.n)
	}
	s.wcur = s.wScaled
	clear(s.diag)
	clear(s.bx)
	clear(s.by)
	copy(s.rowNext, s.rowStart[:s.n])
	// Armed SitePlacerReweight silently perturbs every scale, breaking the
	// all-ones bit-identity contract — the wrong-answer failure mode the
	// core/timing-identity oracle must catch.
	perturb := 0.0
	if faultinject.Hook(faultinject.SitePlacerReweight) != nil {
		perturb = 1e-3
	}
	s.allTerms(func(ni int) float64 {
		if ni < len(scale) {
			return scale[ni] + perturb
		}
		return 1 + perturb
	}, &rowFill{diagRHS: s.diagRHS, w: s.wScaled, next: s.rowNext})
}

// solver is one solve entry call at work — Global, Incremental, SolveQP or
// one V-cycle level: the system, its normalized options, the CG worker
// count, and a pooled CG workspace taken at the first round (a Global that
// hands off to the V-cycle never rounds, so it holds none while the levels
// take theirs).
type solver struct {
	s       *System
	opt     Options
	workers int
	ws      *solveWS
}

// begin is the one entry preamble of the placer's solves: it validates the
// circuit, normalizes opt for the system's movable count and binds the
// telemetry registry. A nil solver with a nil error means there is nothing
// to place. The caller releases the solver with done.
func (s *System) begin(opt Options) (*solver, error) {
	if err := validate(s.c); err != nil {
		return nil, err
	}
	opt.normalize(s.nMov)
	if s.nMov == 0 {
		return nil, nil
	}
	s.obs = obs.Resolve(opt.Obs)
	return &solver{s: s, opt: opt, workers: par.Workers(opt.Parallelism)}, nil
}

// done returns the solver's workspace to the pool.
func (p *solver) done() {
	if p.ws != nil {
		wsPool.Put(p.ws)
	}
}

// round runs one prepare+solve+writeBack round and reports convergence.
// Under opt.rebuildEachSolve (test-only) it assembles a fresh System first,
// reproducing the historical rebuild-every-time path.
func (p *solver) round(extra []PseudoNet, extraScale, stability float64) (bool, error) {
	if p.ws == nil {
		p.ws = wsPool.Get().(*solveWS)
	}
	opt := &p.opt
	sys := p.s
	if opt.rebuildEachSolve {
		fresh, err := NewSystem(p.s.c, opt.Obs)
		if err != nil {
			return false, err
		}
		sys = fresh
	}
	sys.prepare(opt, extra, extraScale, stability)
	converged, serr := sys.solve(opt.CGTol, cgMaxIter, p.workers, p.ws, opt.Stop)
	// Best-effort positions reach the circuit even on cancellation, so the
	// caller's snapshot/degrade path always sees a consistent placement.
	sys.writeBack(p.s.c)
	return converged, serr
}

// Kernel grains: chunk sizes of the parallel CG primitives. They are fixed
// constants (never derived from the worker count) so that the floating-point
// reduction order — and therefore every solved position — is bit-identical
// no matter how many workers run the chunks. Systems smaller than one grain
// reduce in exactly the seed's serial order.
const (
	mulGrain = 256  // matrix rows per mulvec chunk
	vecGrain = 4096 // elements per vector-op / dot-product chunk
)

// cgScratch holds the four CG work vectors of one axis, reused across solves
// (and, via wsPool, across Global/Incremental calls) instead of being
// reallocated per solve.
type cgScratch struct {
	r, z, p, ap []float64
}

func (w *cgScratch) ensure(n int) {
	if cap(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
	}
	w.r, w.z, w.p, w.ap = w.r[:n], w.z[:n], w.p[:n], w.ap[:n]
}

// solveWS is the per-solve workspace: one CG scratch per axis, because the
// two axes may run concurrently.
type solveWS struct {
	x, y cgScratch
}

// wsPool recycles solve workspaces across Global/Incremental calls. Every
// scratch element is fully written before it is read, so reuse cannot leak
// state between solves.
var wsPool = sync.Pool{New: func() any { return new(solveWS) }}

// solve runs Jacobi-preconditioned CG for both dimensions, starting from the
// current positions, and leaves the solutions in posX/posY. The x and y
// systems share the (read-only) matrix but nothing else, so with more than
// one worker they solve concurrently, splitting the worker budget. It
// reports whether both axes converged (posX/posY hold the best-effort
// iterates either way).
func (s *System) solve(tol float64, maxIter, workers int, ws *solveWS, tok *stop.Token) (bool, error) {
	if faultinject.Hook(faultinject.SitePlacerCG) != nil {
		return false, nil // injected stagnation: exercise the retry path
	}
	var okX, okY bool
	var errX, errY error
	if workers > 1 {
		half := workers / 2
		par.Do(workers,
			func() { okX, errX = s.cg(s.posX, s.bx, tol, maxIter, half, &ws.x, tok) },
			func() { okY, errY = s.cg(s.posY, s.by, tol, maxIter, workers-half, &ws.y, tok) })
	} else {
		okX, errX = s.cg(s.posX, s.bx, tol, maxIter, 1, &ws.x, tok)
		okY, errY = s.cg(s.posY, s.by, tol, maxIter, 1, &ws.y, tok)
	}
	if errX != nil {
		return okX && okY, errX // x before y: deterministic error choice
	}
	return okX && okY, errY
}

// mulvec computes out = A*v for the Laplacian-plus-diagonal system. The CSR
// row walk is over contiguous cols/w memory, in the same per-row neighbor
// order the build recorded. Rows are independent, so chunked execution is
// deterministic for any worker count.
func (s *System) mulvec(v, out []float64, workers int) {
	par.Chunks(workers, s.n, mulGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := s.diag[i] * v[i]
			cols := s.cols[s.rowStart[i]:s.rowStart[i+1]]
			wts := s.wcur[s.rowStart[i]:s.rowStart[i+1]]
			for k, j := range cols {
				acc -= wts[k] * v[j]
			}
			out[i] = acc
		}
	})
}

func addF(a, b float64) float64 { return a + b }

// dot is the fixed-chunk parallel dot product: partial sums per vecGrain
// chunk, merged in chunk order (bit-identical for every worker count).
func dot(a, b []float64, workers int) float64 {
	return par.MapReduce(workers, len(a), vecGrain, func(lo, hi int) float64 {
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += a[i] * b[i]
		}
		return acc
	}, addF)
}

// cg reports whether it reached the residual tolerance; on a false return
// (iteration budget exhausted or numerical breakdown with the residual still
// high) x holds the best iterate reached. A fired stop token additionally
// returns an error wrapping the stop sentinel; x still holds the best
// iterate, exactly as on budget exhaustion.
func (s *System) cg(x, b []float64, tol float64, maxIter, workers int, ws *cgScratch, tok *stop.Token) (bool, error) {
	n := s.n
	if n == 0 {
		return true, nil
	}
	// Telemetry accumulates locally and records once at exit (registry
	// methods lock; the CG inner loop must stay lock-free). Counters
	// (solves, iterations) are deterministic; the exit residual is a
	// last-write gauge because the two axis solves race on it.
	iters := 0
	converged := false
	stopped := false
	rel := math.Inf(1)
	if reg := s.obs; reg != nil {
		defer func() {
			reg.Add("placer.cg.solves", 1)
			reg.Add("placer.cg.iters", int64(iters))
			switch {
			case stopped:
				reg.Add("placer.cg.canceled", 1)
			case !converged:
				reg.Add("placer.cg.stagnated", 1)
			}
			reg.Gauge("placer.cg.residual", rel)
		}()
	}
	ws.ensure(n)
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap
	s.mulvec(x, r, workers)
	par.Chunks(workers, n, vecGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = b[i] - r[i]
		}
	})
	bnorm := math.Sqrt(dot(b, b, workers))
	if bnorm == 0 {
		bnorm = 1
	}
	// settle records the current iterate's exit residual and whether it
	// meets the tolerance.
	settle := func() bool {
		rcur := math.Sqrt(dot(r, r, workers))
		rel = rcur / bnorm
		converged = rcur <= tol*bnorm
		return converged
	}
	rz := par.MapReduce(workers, n, vecGrain, func(lo, hi int) float64 {
		acc := 0.0
		for i := lo; i < hi; i++ {
			z[i] = r[i] / s.diag[i]
			p[i] = z[i]
			acc += r[i] * z[i]
		}
		return acc
	}, addF)
	for iter := 0; iter < maxIter; iter++ {
		if serr := stop.Check(tok, faultinject.SitePlacerCGCancel); serr != nil {
			stopped = true
			return settle(), fmt.Errorf("placer: conjugate gradients: %w", serr)
		}
		rn := dot(r, r, workers)
		if math.Sqrt(rn) <= tol*bnorm {
			rel = math.Sqrt(rn) / bnorm
			converged = true
			return true, nil
		}
		s.mulvec(p, ap, workers)
		pap := dot(p, ap, workers)
		if pap <= 0 {
			// Numerical breakdown; current x is best effort. Converged only
			// if the residual already meets the tolerance.
			return settle(), nil
		}
		alpha := rz / pap
		par.Chunks(workers, n, vecGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
			}
		})
		rzNew := par.MapReduce(workers, n, vecGrain, func(lo, hi int) float64 {
			acc := 0.0
			for i := lo; i < hi; i++ {
				z[i] = r[i] / s.diag[i]
				acc += r[i] * z[i]
			}
			return acc
		}, addF)
		beta := rzNew / rz
		rz = rzNew
		par.Chunks(workers, n, vecGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
		iters++
	}
	// Iteration budget exhausted: residual stagnated above tolerance.
	return settle(), nil
}

// SolveQP runs one pure quadratic solve of the system — prepare with the
// options' anchor overlay, a single conjugate-gradients solve per axis, and a
// write-back — with no spreading, equalization, or legalization rounds. It
// exposes the exact linear system Global/Incremental iterate over, which is
// what the differential-testing oracle (internal/oracle) checks against a
// dense Gaussian-elimination reference; the flow itself always goes through
// Global/Incremental.
func (s *System) SolveQP(opt Options) error {
	p, err := s.begin(opt)
	if p == nil {
		return err
	}
	defer p.done()
	converged, err := p.round(nil, 0, 0)
	return finish(converged, err, "quadratic solve")
}

// finish is an entry's error after its final round: the round's own error,
// else ErrNonConverged wrapped with what when the round did not converge
// (its best-effort positions are already on the circuit).
func finish(converged bool, err error, what string) error {
	if err == nil && !converged {
		return fmt.Errorf("placer: %s: %w", what, ErrNonConverged)
	}
	return err
}

// writeBack clamps solved positions into the die and stores them on the
// circuit's movable cells.
func (s *System) writeBack(c *netlist.Circuit) {
	for i, id := range s.cells {
		if id < 0 {
			continue
		}
		c.Cells[id].Pos = c.Die.Clamp(geom.Pt(s.posX[i], s.posY[i]))
	}
}

// validate sanity-checks the circuit for placement.
func validate(c *netlist.Circuit) error {
	if c.Die.Area() <= 0 {
		return fmt.Errorf("placer: circuit %q has an empty die", c.Name)
	}
	return nil
}
