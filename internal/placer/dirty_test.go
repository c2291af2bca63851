package placer

import (
	"math"
	"testing"
	"time"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// addSink appends cellID as a sink of netID, maintaining the fanin cross
// reference, and returns the net's previous pin list.
func addSink(c *netlist.Circuit, netID, cellID int) []int {
	n := c.Nets[netID]
	old := append([]int(nil), n.Pins...)
	n.Pins = append(n.Pins, cellID)
	c.Cells[cellID].Fanin = append(c.Cells[cellID].Fanin, netID)
	return old
}

// dropSink removes cellID from netID's sinks, maintaining the fanin cross
// reference, and returns the net's previous pin list.
func dropSink(t *testing.T, c *netlist.Circuit, netID, cellID int) []int {
	t.Helper()
	n := c.Nets[netID]
	old := append([]int(nil), n.Pins...)
	found := false
	for i := 1; i < len(n.Pins); i++ {
		if n.Pins[i] == cellID {
			n.Pins = append(n.Pins[:i], n.Pins[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("cell %d is not a sink of net %d", cellID, netID)
	}
	cell := c.Cells[cellID]
	for i, e := range cell.Fanin {
		if e == netID {
			cell.Fanin = append(cell.Fanin[:i], cell.Fanin[i+1:]...)
			return old
		}
	}
	t.Fatalf("cell %d fanin does not list net %d", cellID, netID)
	return nil
}

// sameSystems asserts the immutable connectivity of two systems is
// bit-identical — the PatchNet == NewSystem contract.
func sameSystems(t *testing.T, label string, got, want *System) {
	t.Helper()
	if got.n != want.n || got.nMov != want.nMov {
		t.Fatalf("%s: size %d/%d vs %d/%d", label, got.n, got.nMov, want.n, want.nMov)
	}
	intEq := func(name string, a, b []int32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", label, name, i, a[i], b[i])
			}
		}
	}
	fltEq := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, name, i, a[i], b[i])
			}
		}
	}
	intEq("rowStart", got.rowStart, want.rowStart)
	intEq("cols", got.cols, want.cols)
	intEq("starRow", got.starRow, want.starRow)
	intEq("starPin", got.starPin, want.starPin)
	fltEq("w", got.w, want.w)
	fltEq("baseDiag", got.baseDiag, want.baseDiag)
	fltEq("baseBx", got.baseBx, want.baseBx)
	fltEq("baseBy", got.baseBy, want.baseBy)
}

// starNets returns net IDs with at least minPins pins.
func starNets(c *netlist.Circuit, minPins int) []int {
	var out []int
	for _, n := range c.Nets {
		if len(n.Pins) >= minPins {
			out = append(out, n.ID)
		}
	}
	return out
}

// movableGateOffNet finds a movable Gate that is not a pin of net netID.
func movableGateOffNet(t *testing.T, c *netlist.Circuit, netID int) int {
	t.Helper()
	on := map[int]bool{}
	for _, p := range c.Nets[netID].Pins {
		on[p] = true
	}
	for _, cell := range c.Cells {
		if cell.Kind == netlist.Gate && !cell.Fixed && !on[cell.ID] {
			return cell.ID
		}
	}
	t.Fatalf("no movable gate off net %d", netID)
	return -1
}

// gateSink finds a Gate sink of net netID (droppable without breaking the
// flip-flop exactly-one-fanin invariant), or -1.
func gateSink(c *netlist.Circuit, netID int) int {
	for _, p := range c.Nets[netID].Sinks() {
		if c.Cells[p].Kind == netlist.Gate {
			return p
		}
	}
	return -1
}

// TestPatchNetMatchesRebuild is the ECO placement patch's exactness
// contract: after a star-class-preserving pin edit, PatchNet's output must be
// bit-identical, field by field, to assembling a fresh System from the edited
// circuit. Checked for an added sink, a dropped sink, and a chain of patches
// stacked on each other's output.
func TestPatchNetMatchesRebuild(t *testing.T) {
	c := detCircuit(t, 400, 50, 71)
	sys, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	origCols := append([]int32(nil), sys.cols...)
	origRows := append([]int32(nil), sys.rowStart...)
	stars := starNets(c, 3)
	if len(stars) < 2 {
		t.Fatalf("generated circuit has %d star nets, need 2", len(stars))
	}

	// Edit 1: add a sink to a star net.
	e1 := stars[0]
	old := addSink(c, e1, movableGateOffNet(t, c, e1))
	patched, ok, err := sys.PatchNet(e1, old)
	if err != nil || !ok {
		t.Fatalf("patch add-sink: ok=%v err=%v", ok, err)
	}
	fresh, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSystems(t, "add sink", patched, fresh)

	// Edit 2, stacked on the patched system: drop a gate sink from a 4+-pin
	// star (so the net keeps star class).
	e2 := -1
	for _, id := range starNets(c, 4) {
		if gateSink(c, id) >= 0 {
			e2 = id
			break
		}
	}
	if e2 < 0 {
		t.Fatal("no 4+-pin net with a gate sink")
	}
	old = dropSink(t, c, e2, gateSink(c, e2))
	patched2, ok, err := patched.PatchNet(e2, old)
	if err != nil || !ok {
		t.Fatalf("patch drop-sink: ok=%v err=%v", ok, err)
	}
	fresh2, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSystems(t, "chained drop sink", patched2, fresh2)

	// Edit 3, stacked again: add as a sink a movable gate whose other net is
	// a 2-pin net ending at a fixed pad, so the affected-row recompute folds
	// that pad into the row's base diagonal and right-hand side.
	padGate, e3 := -1, -1
	for _, net := range c.Nets {
		if len(net.Pins) != 2 {
			continue
		}
		a, b := c.Cells[net.Pins[0]], c.Cells[net.Pins[1]]
		if a.Fixed && !b.Fixed && b.Kind == netlist.Gate {
			padGate = b.ID
		} else if b.Fixed && !a.Fixed && a.Kind == netlist.Gate {
			padGate = a.ID
		}
		if padGate >= 0 {
			break
		}
	}
	if padGate < 0 {
		t.Fatal("no movable gate on a 2-pin net to a fixed pad")
	}
	for _, id := range stars {
		on := false
		for _, p := range c.Nets[id].Pins {
			on = on || p == padGate
		}
		if !on {
			e3 = id
			break
		}
	}
	old = addSink(c, e3, padGate)
	patched3, ok, err := patched2.PatchNet(e3, old)
	if err != nil || !ok {
		t.Fatalf("patch pad-neighbor sink: ok=%v err=%v", ok, err)
	}
	fresh3, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSystems(t, "chained pad-neighbor sink", patched3, fresh3)

	if err := c.Validate(); err != nil {
		t.Fatalf("edited circuit invalid: %v", err)
	}
	// The original system's arrays must be untouched by either patch — the
	// caller rolls an ECO back by keeping the old pointer.
	if len(sys.cols) != len(origCols) || len(sys.rowStart) != len(origRows) {
		t.Fatal("patch resized the receiver's arrays")
	}
	for i := range origCols {
		if sys.cols[i] != origCols[i] {
			t.Fatalf("patch mutated receiver cols[%d]", i)
		}
	}
	for i := range origRows {
		if sys.rowStart[i] != origRows[i] {
			t.Fatalf("patch mutated receiver rowStart[%d]", i)
		}
	}
}

// TestPatchNetClassChange: edits that flip a net between 2-pin and star
// class are not patchable — the caller must rebuild.
func TestPatchNetClassChange(t *testing.T) {
	c := netlist.New("class")
	c.Die = geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}
	for i := 0; i < 4; i++ {
		c.AddCell(&netlist.Cell{Name: "g", Kind: netlist.Gate, Pos: geom.Pt(50, 50)})
	}
	c.AddNet("n0", 0, 1, 2) // 3-pin star
	sys, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop to 2 pins: class change.
	old := dropSink(t, c, 0, 2)
	if ns, ok, err := sys.PatchNet(0, old); err != nil || ok || ns != nil {
		t.Fatalf("3->2 pin edit: ns=%v ok=%v err=%v, want nil/false/nil", ns, ok, err)
	}
	// Grow from 2 back to 3: also a class change (old side is 2-pin).
	old = addSink(c, 0, 2)
	if ns, ok, err := sys.PatchNet(0, old); err != nil || ok || ns != nil {
		t.Fatalf("2->3 pin edit: ns=%v ok=%v err=%v, want nil/false/nil", ns, ok, err)
	}
	// Out-of-range net errors.
	if _, _, err := sys.PatchNet(99, old); err == nil {
		t.Fatal("out-of-range net: no error")
	}
}

// twoClusters builds two connectivity-disjoint clusters, each a 3-pin star
// of movable gates plus a fixed pad pulling it, far apart on the die.
func twoClusters(t *testing.T) (*netlist.Circuit, []int, []int) {
	t.Helper()
	c := netlist.New("clusters")
	c.Die = geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1000, 1000)}
	mk := func(x, y float64, fixed bool) int {
		kind := netlist.Gate
		if fixed {
			kind = netlist.Input
		}
		cell := c.AddCell(&netlist.Cell{Name: "c", Kind: kind, Pos: geom.Pt(x, y), Fixed: fixed})
		return cell.ID
	}
	a0 := mk(100, 100, true)
	a1 := mk(180, 120, false)
	a2 := mk(140, 190, false)
	c.AddNet("a", a0, a1, a2)
	b0 := mk(900, 900, true)
	b1 := mk(820, 880, false)
	b2 := mk(860, 810, false)
	c.AddNet("b", b0, b1, b2)
	return c, []int{a1, a2}, []int{b1, b2}
}

// TestSolveDirtyBatchMatchesSequential: disjoint dirty regions must solve to
// bit-identical positions whether passed as one batch or one at a time — the
// property the ECO batch==sequential oracle leans on.
func TestSolveDirtyBatchMatchesSequential(t *testing.T) {
	cb, aCells, bCells := twoClusters(t)
	sysB, err := NewSystem(cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysB.SolveDirty(append(append([]int{}, aCells...), bCells...), nil); err != nil {
		t.Fatal(err)
	}

	cs, aCells2, bCells2 := twoClusters(t)
	sysS, err := NewSystem(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysS.SolveDirty(aCells2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sysS.SolveDirty(bCells2, nil); err != nil {
		t.Fatal(err)
	}
	samePositions(t, "batch vs sequential", cb.Positions(), cs.Positions())
}

// TestSolveDirtyPullsTowardConnectivity: a dirty cell moves toward its net
// neighbors but, anchored at its old position, does not teleport onto them;
// clean cells do not move at all.
func TestSolveDirtyPullsTowardConnectivity(t *testing.T) {
	c, aCells, bCells := twoClusters(t)
	reg := obs.NewRegistry()
	sys, err := NewSystem(c, reg)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Positions()
	moved, err := sys.SolveDirty(aCells[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1", moved)
	}
	id := aCells[0]
	if c.Cells[id].Pos == before[id] {
		t.Fatal("dirty cell did not move")
	}
	// Everything else stays put — including the other dirty-capable cells.
	for _, cell := range c.Cells {
		if cell.ID == id {
			continue
		}
		if cell.Pos != before[cell.ID] {
			t.Fatalf("clean cell %d moved from %v to %v", cell.ID, before[cell.ID], cell.Pos)
		}
	}
	_ = bCells
	if got := reg.Counter("placer.dirty.solves"); got != 1 {
		t.Errorf("placer.dirty.solves = %d, want 1", got)
	}
	if got := reg.Counter("placer.dirty.components"); got != 1 {
		t.Errorf("placer.dirty.components = %d, want 1", got)
	}
	// Dirty cell + its star node.
	if got := reg.Counter("placer.dirty.cells"); got != 2 {
		t.Errorf("placer.dirty.cells = %d, want 2", got)
	}
}

// TestSolveDirtyEmptyAndUnknown: no dirty cells (or only fixed/unknown IDs)
// is a no-op, not an error.
func TestSolveDirtyEmptyAndUnknown(t *testing.T) {
	c, _, _ := twoClusters(t)
	sys, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Positions()
	moved, err := sys.SolveDirty(nil, nil)
	if err != nil || moved != 0 {
		t.Fatalf("empty dirty set: moved=%d err=%v", moved, err)
	}
	moved, err = sys.SolveDirty([]int{0, 9999}, nil) // fixed pad + unknown ID
	if err != nil || moved != 0 {
		t.Fatalf("fixed/unknown dirty set: moved=%d err=%v", moved, err)
	}
	samePositions(t, "no-op dirty solve", c.Positions(), before)
}

// TestSolveDirtyStops: an expired token aborts before any component solves.
func TestSolveDirtyStops(t *testing.T) {
	c, aCells, _ := twoClusters(t)
	sys, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	tok, cancel := stop.WithTimeout(-time.Second)
	defer cancel()
	if _, err := sys.SolveDirty(aCells, tok); !stop.IsStop(err) {
		t.Fatalf("err = %v, want a stop error", err)
	}
}
