package placer

import (
	"fmt"
	"math"
	"sort"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// Legalize snaps movable cells onto non-overlapping row sites. Cells are
// assigned to rows in y order (each row receives a balanced share of total
// cell width, preserving vertical locality), then packed within each row by
// an order-preserving 1D shift with minimum clamping. Row height is taken
// from the tallest movable cell. It returns an error if the die cannot hold
// all cells.
func Legalize(c *netlist.Circuit) error {
	if err := validate(c); err != nil {
		return err
	}
	var ids []int
	rowH := 0.0
	totalW := 0.0
	for _, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		ids = append(ids, cell.ID)
		rowH = math.Max(rowH, cell.H)
		totalW += cell.W
		if cell.W > c.Die.W() {
			return fmt.Errorf("placer: cell %q wider (%.1f) than the die (%.1f)", cell.Name, cell.W, c.Die.W())
		}
	}
	if len(ids) == 0 {
		return nil
	}
	if rowH <= 0 {
		return fmt.Errorf("placer: movable cells have no footprint; size them before legalizing")
	}
	nRows := int(c.Die.H() / rowH)
	if nRows == 0 {
		return fmt.Errorf("placer: die height %.1f below row height %.1f", c.Die.H(), rowH)
	}
	if totalW > float64(nRows)*c.Die.W() {
		return fmt.Errorf("placer: total cell width %.0f exceeds row capacity %.0f", totalW, float64(nRows)*c.Die.W())
	}
	rowY := func(r int) float64 { return c.Die.Lo.Y + (float64(r)+0.5)*rowH }

	// Assign cells to rows in y order, each row taking a balanced share of
	// the total width (never beyond its physical capacity).
	sort.SliceStable(ids, func(a, b int) bool {
		pa, pb := c.Cells[ids[a]].Pos, c.Cells[ids[b]].Pos
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return ids[a] < ids[b]
	})
	// Cumulative-width quotas: cell k goes to the row its running width
	// prefix falls into, so no row exceeds quota + one cell width.
	quota := totalW / float64(nRows)
	maxW := 0.0
	for _, id := range ids {
		maxW = math.Max(maxW, c.Cells[id].W)
	}
	if quota+maxW > c.Die.W() {
		return fmt.Errorf("placer: utilization too high to legalize (row quota %.0f + cell %.0f exceeds die width %.0f)", quota, maxW, c.Die.W())
	}
	rows := make([][]int, nRows)
	cum := 0.0
	for _, id := range ids {
		r := int(cum / quota)
		if r >= nRows {
			r = nRows - 1
		}
		rows[r] = append(rows[r], id)
		cum += c.Cells[id].W
	}

	// Pack each row: order-preserving minimum-shift placement.
	for r, row := range rows {
		if len(row) == 0 {
			continue
		}
		sort.SliceStable(row, func(a, b int) bool {
			pa, pb := c.Cells[row[a]].Pos.X, c.Cells[row[b]].Pos.X
			if pa != pb {
				return pa < pb
			}
			return row[a] < row[b]
		})
		left := make([]float64, len(row))
		cur := c.Die.Lo.X
		for i, id := range row {
			cell := c.Cells[id]
			left[i] = math.Max(cur, cell.Pos.X-cell.W/2)
			cur = left[i] + cell.W
		}
		// Backward pass: push overflow left (feasible by the width check).
		limit := c.Die.Hi.X
		for i := len(row) - 1; i >= 0; i-- {
			cell := c.Cells[row[i]]
			left[i] = math.Min(left[i], limit-cell.W)
			limit = left[i]
		}
		y := rowY(r)
		for i, id := range row {
			cell := c.Cells[id]
			cell.Pos = geom.Pt(left[i]+cell.W/2, y)
		}
	}
	return nil
}

// MaxOverlap returns the largest pairwise overlap area among movable cells
// (0 means overlap-free). It compares every pair of movable cells, O(n^2) in
// their count; core.Audit runs it on every rotaryflow run.
func MaxOverlap(c *netlist.Circuit) float64 {
	var cells []*netlist.Cell
	for _, cell := range c.Cells {
		if !cell.Fixed && cell.W > 0 {
			cells = append(cells, cell)
		}
	}
	worst := 0.0
	for i := 0; i < len(cells); i++ {
		for j := i + 1; j < len(cells); j++ {
			a, b := cells[i], cells[j]
			ox := math.Min(a.Pos.X+a.W/2, b.Pos.X+b.W/2) - math.Max(a.Pos.X-a.W/2, b.Pos.X-b.W/2)
			oy := math.Min(a.Pos.Y+a.H/2, b.Pos.Y+b.H/2) - math.Max(a.Pos.Y-a.H/2, b.Pos.Y-b.H/2)
			if ox > 1e-9 && oy > 1e-9 {
				worst = math.Max(worst, ox*oy)
			}
		}
	}
	return worst
}

// Density reports the utilization of the worst bin on a grid x grid
// overlay, a spreading-quality metric for tests.
func Density(c *netlist.Circuit, grid int) float64 {
	if grid <= 0 {
		grid = 10
	}
	bins := make([]float64, grid*grid)
	bw, bh := c.Die.W()/float64(grid), c.Die.H()/float64(grid)
	for _, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		ix := int((cell.Pos.X - c.Die.Lo.X) / bw)
		iy := int((cell.Pos.Y - c.Die.Lo.Y) / bh)
		if ix < 0 {
			ix = 0
		}
		if ix >= grid {
			ix = grid - 1
		}
		if iy < 0 {
			iy = 0
		}
		if iy >= grid {
			iy = grid - 1
		}
		bins[iy*grid+ix] += cell.W * cell.H
	}
	worst := 0.0
	binArea := bw * bh
	for _, a := range bins {
		worst = math.Max(worst, a/binArea)
	}
	return worst
}
