package eco

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/stop"
)

// Apply absorbs a batch of deltas into the state with bounded recompute:
// netlist edits (with copy-on-write system patching), a dirty-region
// placement solve, a warm-started schedule re-check, and a residual-flow
// assignment patch. On success the circuit and state hold the new optimum;
// on failure both roll back to their pre-call values — strict mode then
// returns the error, non-strict returns a Degraded outcome describing the
// restored state.
//
// Deltas apply in order, each seeing its predecessors' effects. Invalid
// deltas (unknown cells, class violations, out-of-range rings) are input
// errors in both modes and never degrade.
func Apply(st *State, deltas []Delta, opt Options) (*Outcome, error) {
	reg := obs.Resolve(opt.Obs)
	reg.Add("eco.applies", 1)
	span := reg.StartSpan("eco.apply", obs.I("deltas", len(deltas)), obs.S("mode", mode(opt)))
	defer span.End()

	r := &applyRun{
		st: st, opt: opt, reg: reg, c: st.Circuit, out: &Outcome{},
		prevPos:    st.Circuit.Positions(),
		pinned:     clonePinned(st.Pinned),
		sys:        st.Sys,
		dirtyCells: map[int]bool{},
		dirtyFFs:   map[int]bool{},
	}
	if r.pinned == nil {
		r.pinned = map[int]int{}
	}
	phases := []struct {
		span, name string
		gate       bool // check the stop token once the phase is done
		run        func() error
	}{
		{"eco.netlist", "netlist edits", true, func() error { return r.edit(deltas) }},
		{"eco.place", "dirty-region placement", true, r.place},
		{"eco.sched", "schedule re-check", true, r.schedule},
		{"eco.assign", "assignment patch", false, r.assign},
	}
	for _, ph := range phases {
		sp := span.Child(ph.span)
		err := ph.run()
		sp.End()
		if err == nil && ph.gate {
			if serr := stop.Check(opt.Stop, faultinject.SiteEcoApplyCancel); serr != nil {
				err = &failure{ph.name, serr}
			}
		}
		if err != nil {
			return r.exit(err)
		}
	}
	return r.commit(), nil
}

// applyRun is the state of one Apply: its inputs, the outcome being filled,
// the undo log, and what each phase hands the next.
type applyRun struct {
	st  *State
	opt Options
	reg *obs.Registry
	c   *netlist.Circuit
	out *Outcome

	prevPos []geom.Point
	undos   []func()
	pinned  map[int]int

	sys        *placer.System
	dirtyCells map[int]bool // movable cells to re-place
	dirtyFFs   map[int]bool // edited flip-flops (cell IDs) to re-route

	ffCells     []int
	oldSched    map[int]float64 // cell ID -> pre-edit delay target
	sched       []float64
	allFFsDirty bool // the schedule was re-solved from scratch
	cache       *assign.TapCache
	asg         *assign.Assignment
}

// failure is a solver failure in the named phase. Unlike an input error it
// degrades instead of raising when the apply is not strict.
type failure struct {
	phase string
	err   error
}

func (f *failure) Error() string { return fmt.Sprintf("%s: %v", f.phase, f.err) }

// errNoOps ends an apply whose every delta was a no-op: nothing re-solves.
var errNoOps = errors.New("eco: every delta is a no-op")

// exit is the one way out of a failed or empty apply. Every failure rolls
// back; an input error then raises in both modes, a solver failure raises
// when strict and otherwise degrades to the restored state.
func (r *applyRun) exit(err error) (*Outcome, error) {
	if errors.Is(err, errNoOps) {
		return r.echo(), nil
	}
	r.rollback()
	var f *failure
	if !errors.As(err, &f) {
		return nil, err
	}
	if r.opt.Strict {
		return nil, fmt.Errorf("eco: %s: %w", f.phase, f.err)
	}
	r.out.Events = append(r.out.Events, fmt.Sprintf("%s failed; rolled back to pre-edit state: %v", f.phase, f.err))
	r.out.Degraded = true
	r.reg.Add("eco.degraded", 1)
	return r.echo(), nil
}

// rollback undoes the applied deltas in reverse and restores the placement.
func (r *applyRun) rollback() {
	for i := len(r.undos) - 1; i >= 0; i-- {
		r.undos[i]()
	}
	if err := r.c.SetPositions(r.prevPos); err != nil {
		// The snapshot came from this circuit; a mismatch is impossible
		// unless a delta resized it, which no delta does.
		panic(fmt.Sprintf("eco: rollback: %v", err))
	}
}

// echo fills the outcome with the unchanged (or restored) state.
func (r *applyRun) echo() *Outcome {
	st, out := r.st, r.out
	out.FFCells = append([]int(nil), st.FFCells...)
	out.Sched = append([]float64(nil), st.Sched...)
	out.Assign = st.Assign
	if st.Assign != nil {
		out.Total = st.Assign.Total
	}
	out.WorkSlack = st.WorkSlack
	return out
}

// edit is phase 1: netlist edits + system patching. Net edits patch the
// system immediately so each patch sees only the edits before it (the
// patched CSR must stay consistent with the circuit it was derived from).
func (r *applyRun) edit(deltas []Delta) error {
	out, reg := r.out, r.reg
	needRebuild := r.opt.Scratch
	for i, d := range deltas {
		ap, err := applyDelta(r.st, r.pinned, i, d)
		if err != nil {
			return err
		}
		if ap.noop {
			out.NoOps++
			reg.Add("eco.noops", 1)
			continue
		}
		if ap.undo != nil {
			r.undos = append(r.undos, ap.undo)
		}
		out.Deltas++
		reg.Add("eco.deltas", 1)
		for _, id := range ap.dirtyCells {
			r.dirtyCells[id] = true
		}
		if ap.dirtyFF >= 0 {
			r.dirtyFFs[ap.dirtyFF] = true
		}
		if ap.editedNet >= 0 && !needRebuild {
			ns, ok, err := r.sys.PatchNet(ap.editedNet, ap.oldPins)
			if err != nil {
				return fmt.Errorf("eco: system patch: %w", err)
			}
			if !ok {
				needRebuild = true
			} else {
				r.sys = ns
				out.SystemPatched++
				reg.Add("eco.system.patches", 1)
			}
		}
	}
	if out.Deltas == 0 {
		return errNoOps
	}
	if needRebuild {
		ns, err := placer.NewSystem(r.c, reg)
		if err != nil {
			return fmt.Errorf("eco: system rebuild: %w", err)
		}
		r.sys = ns
		out.SystemRebuilt = true
		reg.Add("eco.system.rebuilds", 1)
	}
	return nil
}

// place is phase 2: dirty-region incremental placement. The edited
// flip-flops hold their (user-chosen) positions; their movable neighbors
// re-settle against the rest of the placement as a boundary condition.
func (r *applyRun) place() error {
	dirty := make([]int, 0, len(r.dirtyCells))
	for id := range r.dirtyCells {
		dirty = append(dirty, id)
	}
	sort.Ints(dirty)
	if len(dirty) > 0 {
		moved, err := r.sys.SolveDirty(dirty, 0, r.opt.Stop)
		if err != nil {
			return &failure{"dirty-region placement", err}
		}
		r.out.MovedCells = moved
	}
	r.out.DirtyCells = len(dirty)
	r.reg.Add("eco.dirty.cells", int64(len(dirty)))
	return nil
}

// schedule is phase 3: warm-started schedule re-check. Any moved cell
// changes wire delays somewhere, so the sequential-pair extraction re-runs
// in full; the schedule repair, seeded from the previous schedule, is the
// bounded part — one O(m) verification round when nothing regressed. The
// margins tried are the flow's ladder (skew.Margins) from the committed
// working slack.
func (r *applyRun) schedule() error {
	st, c, tok := r.st, r.c, r.opt.Stop
	r.ffCells = c.FlipFlops()
	n := len(r.ffCells)
	if n == 0 {
		return errors.New("eco: no flip-flops to optimize")
	}
	ffIdx := make(map[int]int, n)
	for i, id := range r.ffCells {
		ffIdx[id] = i
	}
	pairs, err := skew.SeqPairs(c, st.TModel, ffIdx)
	if err != nil {
		return &failure{"timing analysis", err}
	}
	r.oldSched = make(map[int]float64, len(st.FFCells))
	for i, id := range st.FFCells {
		if i < len(st.Sched) {
			r.oldSched[id] = st.Sched[i]
		}
	}
	seed := make([]float64, n)
	for i, id := range r.ffCells {
		if s, ok := r.oldSched[id]; ok {
			seed[i] = s
		} else {
			seed[i] = ringPhaseSeed(st, c.Cells[id].Pos)
		}
	}
	T := st.Params.Period
	ladder := skew.Margins(st.WorkSlack)
	for li, m := range ladder {
		cons := skew.Constraints(pairs, T, m, st.TModel.TSetup, st.TModel.THold)
		t, rounds, feasible, err := skew.WarmStart(tok, n, cons, seed)
		if err != nil {
			return &failure{"schedule re-check", err}
		}
		r.out.SchedRounds = rounds
		if feasible {
			r.sched, r.out.WorkSlack = t, m
			return nil
		}
		if li+1 < len(ladder) {
			r.out.Events = append(r.out.Events, fmt.Sprintf("schedule re-check infeasible at %.4g ps margin; relaxing to %.4g", m, ladder[li+1]))
			r.reg.Add("eco.recover.sched", 1)
		}
	}
	// Even the zero-margin warm start failed: the edit moved timing past the
	// old schedule's neighborhood. Fall back to a fresh max-slack solve
	// (feasible whenever any schedule is) and re-route everything.
	M, ms, err := skew.MaxSlackExactStop(tok, n, pairs, T, st.TModel.TSetup, st.TModel.THold)
	if err != nil {
		return &failure{"schedule re-check", err}
	}
	r.sched, r.out.WorkSlack, r.allFFsDirty = ms, skew.WorkSlack(M), true
	r.out.Events = append(r.out.Events, "warm start infeasible at every margin; fell back to a fresh max-slack schedule")
	r.reg.Add("eco.recover.sched", 1)
	return nil
}

// assign is phase 4: assignment patch. Dirty flip-flops are the edited ones
// plus any whose schedule entry the repair moved (bit-compare against the
// old schedule); everything else preloads its previous ring. An infeasible
// patch walks the flow's relaxation ladder (assign.Recover); relaxed rungs
// solve cold, since the previous assignment is not a feasible warm start
// for an instance the patch already rejected.
func (r *applyRun) assign() error {
	st, c, n := r.st, r.c, len(r.ffCells)
	prevRingByCell := make(map[int]int, len(st.FFCells))
	for i, id := range st.FFCells {
		if i < len(st.Ring) {
			prevRingByCell[id] = st.Ring[i]
		}
	}
	prev := make([]int, n)
	var dirtyIdx []int
	for i, id := range r.ffCells {
		ring, ok := prevRingByCell[id]
		if !ok {
			ring = -1
		}
		prev[i] = ring
		old, had := r.oldSched[id]
		schedChanged := !had || math.Float64bits(old) != math.Float64bits(r.sched[i])
		if r.allFFsDirty || r.dirtyFFs[id] || schedChanged {
			dirtyIdx = append(dirtyIdx, i)
		}
	}
	r.out.DirtyFFs = len(dirtyIdx)
	r.reg.Add("eco.dirty.ffs", int64(len(dirtyIdx)))

	r.cache = st.Cache
	if r.opt.Scratch || r.cache == nil {
		r.cache = assign.NewTapCache()
	}
	var pin []int
	if len(r.pinned) > 0 {
		pin = make([]int, n)
		for i, id := range r.ffCells {
			pin[i] = -1
			if ring, ok := r.pinned[id]; ok {
				pin[i] = ring
			}
		}
	}
	ffs := make([]assign.FF, n)
	for i, id := range r.ffCells {
		ffs[i] = assign.FF{Cell: id, Pos: c.Cells[id].Pos, Target: r.sched[i]}
	}
	p := &assign.Problem{
		Array:       st.Array,
		FFs:         ffs,
		Pin:         pin,
		Parallelism: st.Parallelism,
		Cache:       r.cache,
		Obs:         r.reg,
		Stop:        r.opt.Stop,
	}
	var first assign.Solver = assign.MinCost
	if !r.opt.Scratch {
		first = func(p *assign.Problem) (*assign.Assignment, error) {
			return assign.PatchMinCost(p, prev, dirtyIdx)
		}
	}
	var relaxed func(action string, err error)
	if !r.opt.Strict {
		relaxed = func(action string, _ error) {
			r.out.Events = append(r.out.Events, action)
			r.reg.Add("eco.recover.assign", 1)
		}
	}
	asg, err := assign.Recover(p, first, assign.MinCost, relaxed)
	if err != nil {
		return &failure{"assignment patch", err}
	}
	r.asg = asg
	return nil
}

// commit installs the new optimum in the state and reports it.
func (r *applyRun) commit() *Outcome {
	st, out, asg := r.st, r.out, r.asg
	st.Sys = r.sys
	st.FFCells = r.ffCells
	st.Sched = r.sched
	st.Ring = append([]int(nil), asg.Ring...)
	st.Assign = asg
	st.WorkSlack = out.WorkSlack
	st.Pinned = r.pinned
	if st.Cache == nil && !r.opt.Scratch {
		st.Cache = r.cache
	}
	out.FFCells = append([]int(nil), r.ffCells...)
	out.Sched = append([]float64(nil), r.sched...)
	out.Assign = asg
	out.Total = asg.Total
	return out
}

func mode(opt Options) string {
	if opt.Scratch {
		return "scratch"
	}
	return "patch"
}

// ringPhaseSeed seeds a brand-new flip-flop's delay target at the phase its
// nearest ring offers at the nearest tapping point — the same quantity the
// nearest-point fallback tap realizes.
func ringPhaseSeed(st *State, pos geom.Point) float64 {
	js := st.Array.NearestRings(pos, 1)
	if len(js) == 0 {
		return 0
	}
	r := st.Array.Rings[js[0]]
	s, _, dist := r.Nearest(pos)
	return math.Mod(r.DelayAt(s, st.Params.Period)+st.Params.StubDelay(dist), st.Params.Period)
}
