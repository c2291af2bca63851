// Dirty-region incremental placement for the ECO flow: patching the
// immutable CSR connectivity after a single-net edit (instead of a full
// NewSystem assembly) and re-solving only a bounded dirty set of cells with
// the rest of the placement held as boundary conditions.
package placer

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/stop"
)

// PatchNet returns a System rebound to the bound circuit after net netID's
// pin list changed from oldPins to its current value, recomputing only the
// CSR rows whose connectivity the edit touched (the net's old and new
// movable pins plus its star row) and block-copying every other row. The
// patched System is a new value sharing no immutable arrays with the
// receiver, so a receiver forked from a shared template stays untouched and
// the caller can roll back by keeping the old pointer.
//
// Only star-class-preserving edits are patchable: the edit must leave the
// net with 3+ pins before and after (a 2-pin net's class flips on any pin
// edit, shifting every star index after it). Class-changing edits return
// patched == false with a nil System; the caller rebuilds via NewSystem.
// The result is bit-identical to NewSystem on the edited circuit — the
// contract TestPatchNetMatchesRebuild locks.
func (s *System) PatchNet(netID int, oldPins []int) (*System, bool, error) {
	c := s.c
	if netID < 0 || netID >= len(c.Nets) {
		return nil, false, fmt.Errorf("placer: patch: net %d out of range (%d nets)", netID, len(c.Nets))
	}
	if err := validate(c); err != nil {
		return nil, false, err
	}
	newPins := c.Nets[netID].Pins
	if len(oldPins) < 3 || len(newPins) < 3 {
		return nil, false, nil
	}

	// Star ordinals are stable under a class-preserving edit: the star of
	// net e is still the count of 3+-pin nets before e.
	starOf := make(map[int]int)
	ord := 0
	for id, net := range c.Nets {
		if len(net.Pins) >= 3 {
			starOf[id] = ord
			ord++
		}
	}
	starIdx := s.nMov + starOf[netID]

	// Affected rows: every movable pin of the old and new pin lists (the
	// star weight k/(k-1)/2 changed for all of them) plus the star row. A
	// movable pin gained (lost) adds (removes) one entry in its own row and
	// one in the star row; fixed pins carry no CSR entries (they fold into
	// the base RHS).
	affected := map[int]bool{starIdx: true}
	degDelta := map[int]int{}
	count := func(pins []int, d int) {
		for _, pid := range pins {
			if i, ok := s.idx[pid]; ok {
				affected[i] = true
				degDelta[i] += d
				degDelta[starIdx] += d
			}
		}
	}
	count(oldPins, -1)
	count(newPins, +1)

	n := s.n
	ns := s.shared(c)
	ns.rowStart = make([]int32, n+1)
	ns.baseDiag, ns.baseBx, ns.baseBy = slices.Clone(s.baseDiag), slices.Clone(s.baseBx), slices.Clone(s.baseBy)
	ns.starRow = slices.Clone(s.starRow)
	for i := 0; i < n; i++ {
		deg := int(s.rowStart[i+1]-s.rowStart[i]) + degDelta[i]
		ns.rowStart[i+1] = ns.rowStart[i] + int32(deg)
	}
	total := int(ns.rowStart[n])
	ns.cols = make([]int32, total)
	ns.w = make([]float64, total)

	// Unaffected rows: block-copy entries (offsets may have shifted).
	for i := 0; i < n; i++ {
		if affected[i] {
			continue
		}
		src := s.rowStart[i]
		dst := ns.rowStart[i]
		cnt := s.rowStart[i+1] - src
		copy(ns.cols[dst:dst+cnt], s.cols[src:src+cnt])
		copy(ns.w[dst:dst+cnt], s.w[src:src+cnt])
	}

	// Affected rows: re-emit the terms of every net incident to the row, in
	// ascending net order as NewSystem's fill pass walks them, keeping only
	// the terms that land in the row. A star row's only net is the edited
	// one.
	fill := &rowFill{diagRHS: ns.base(), cols: ns.cols, w: ns.w, next: slices.Clone(ns.rowStart[:n])}
	for i := range affected {
		ns.baseDiag[i], ns.baseBx[i], ns.baseBy[i] = 0, 0, 0
		nets := []int{netID}
		if i < s.nMov {
			cell := c.Cells[s.cells[i]]
			nets = slices.Clone(cell.Fanin)
			if cell.Fanout >= 0 {
				nets = append(nets, cell.Fanout)
			}
			slices.Sort(nets)
			nets = slices.Compact(nets)
		}
		for _, e := range nets {
			s.netTerms(c.Nets[e].Pins, s.nMov+starOf[e], 1, oneRow{fill, i})
		}
		if at := fill.next[i]; at != ns.rowStart[i+1] {
			return nil, false, fmt.Errorf("placer: patch: row %d filled %d of %d entries", i, at-ns.rowStart[i], ns.rowStart[i+1]-ns.rowStart[i])
		}
	}

	// Star pin list: splice the edited net's pins in place; offsets after
	// it shift by the length difference.
	st := starOf[netID]
	lo, hi := s.starRow[st], s.starRow[st+1]
	pins := make([]int32, len(newPins))
	for k, pid := range newPins {
		pins[k] = int32(pid)
	}
	ns.starPin = slices.Concat(s.starPin[:lo], pins, s.starPin[hi:])
	for k := st + 1; k < len(ns.starRow); k++ {
		ns.starRow[k] += int32(len(newPins)) - (hi - lo)
	}

	ns.obs.Add("placer.system.patches", 1)
	return ns.withSolveState(), true, nil
}

// SolveDirty re-places only the dirty movable cells, holding every other
// cell at its current position as a boundary condition. The dirty set plus
// the star nodes of nets touching it form the unknowns; each connected
// component solves independently with serial CG (so disjoint edits compose
// bit-identically whether batched or sequential), with stability anchors at
// Incremental's weight keeping the region from drifting. Positions write
// back clamped to the die. It returns the number of cells whose position
// changed. Cell IDs that are fixed or unknown are ignored.
func (s *System) SolveDirty(dirtyCells []int, tok *stop.Token) (int, error) {
	c := s.c
	if err := validate(c); err != nil {
		return 0, err
	}
	sub := map[int]bool{}
	for _, id := range dirtyCells {
		if i, ok := s.idx[id]; ok {
			sub[i] = true
		}
	}
	if len(sub) == 0 {
		return 0, nil
	}
	// Pull in the star nodes adjacent to dirty cells: their positions are
	// not stored anywhere, so they must be unknowns too. (Stars only
	// neighbor cells, so one hop closes the set.)
	for i := range sub {
		if i >= s.nMov {
			continue
		}
		for a := s.rowStart[i]; a < s.rowStart[i+1]; a++ {
			if j := int(s.cols[a]); j >= s.nMov {
				sub[j] = true
			}
		}
	}
	order := make([]int, 0, len(sub))
	for i := range sub {
		order = append(order, i)
	}
	sort.Ints(order)

	s.obs.Add("placer.dirty.solves", 1)
	s.obs.Add("placer.dirty.cells", int64(len(order)))

	moved := 0
	seen := map[int]bool{}
	for _, root := range order {
		if seen[root] {
			continue
		}
		if err := stop.Check(tok, faultinject.SitePlacerDirtyCancel); err != nil {
			return moved, fmt.Errorf("placer: dirty-region solve: %w", err)
		}
		// Collect the connected component (deterministic: sorted frontier).
		comp := []int{root}
		seen[root] = true
		for f := 0; f < len(comp); f++ {
			i := comp[f]
			for a := s.rowStart[i]; a < s.rowStart[i+1]; a++ {
				j := int(s.cols[a])
				if sub[j] && !seen[j] {
					seen[j] = true
					comp = append(comp, j)
				}
			}
		}
		sort.Ints(comp)
		m, err := s.solveComponent(comp)
		if err != nil {
			return moved, err
		}
		moved += m
		s.obs.Add("placer.dirty.components", 1)
	}
	return moved, nil
}

// solveComponent solves one connected dirty component: a small SPD system
// over the component's unknowns, with clean neighbors folded into the
// right-hand side at their current positions.
func (s *System) solveComponent(comp []int) (int, error) {
	c := s.c
	m := len(comp)
	local := make(map[int]int, m)
	for li, i := range comp {
		local[i] = li
	}
	loc := diagRHS{make([]float64, m), make([]float64, m), make([]float64, m)}
	x := make([]float64, m)
	y := make([]float64, m)
	type entry struct {
		j int
		w float64
	}
	rows := make([][]entry, m)
	center := c.Die.Center()
	for li, i := range comp {
		loc.diag[li] = s.baseDiag[i]
		loc.bx[li] = s.baseBx[i]
		loc.by[li] = s.baseBy[i]
		p := s.seed(i)
		x[li], y[li] = p.X, p.Y
		if i < s.nMov {
			loc.anchor(li, p, stabilityWeight)
		}
		for a := s.rowStart[i]; a < s.rowStart[i+1]; a++ {
			j := int(s.cols[a])
			w := s.w[a]
			if lj, ok := local[j]; ok {
				rows[li] = append(rows[li], entry{j: lj, w: w})
			} else {
				// Clean movable neighbor: a boundary condition at its
				// current position. (Stars adjacent to component members
				// are in the component by construction, so j < nMov.)
				pos := c.Cells[s.cells[j]].Pos
				loc.bx[li] += w * pos.X
				loc.by[li] += w * pos.Y
			}
		}
		loc.regularize(li, center)
	}
	mul := func(v, out []float64) {
		for li := range out {
			acc := loc.diag[li] * v[li]
			for _, e := range rows[li] {
				acc -= e.w * v[e.j]
			}
			out[li] = acc
		}
	}
	if err := cgSerial(mul, x, loc.bx); err != nil {
		return 0, err
	}
	if err := cgSerial(mul, y, loc.by); err != nil {
		return 0, err
	}
	moved := 0
	for li, i := range comp {
		if i >= s.nMov {
			continue
		}
		cell := c.Cells[s.cells[i]]
		p := c.Die.Clamp(geom.Pt(x[li], y[li]))
		if p != cell.Pos {
			moved++
		}
		cell.Pos = p
	}
	return moved, nil
}

// cgSerial is a deterministic single-threaded conjugate-gradients solve of
// mul(x) = b, warm-started from x, at the placer's default tolerance and
// iteration budget.
func cgSerial(mul func(v, out []float64), x, b []float64) error {
	n := len(b)
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	mul(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(p, r)
	rr := 0.0
	bb := 0.0
	for i := range r {
		rr += r[i] * r[i]
		bb += b[i] * b[i]
	}
	tol2 := cgTol * cgTol * math.Max(bb, 1)
	for iter := 0; iter < cgMaxIter && rr > tol2; iter++ {
		mul(p, ap)
		pap := 0.0
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			break
		}
		alpha := rr / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		nrr := 0.0
		for i := range r {
			nrr += r[i] * r[i]
		}
		beta := nrr / rr
		rr = nrr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return nil
}
