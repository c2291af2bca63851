// Package core implements the paper's primary contribution: the integrated
// placement and skew optimization methodology of Fig. 3. The six stages are
//
//  1. initial placement (quadratic global placement + legalization)
//  2. max-slack skew optimization (Fishburn / graph-based)
//  3. flip-flop-to-ring assignment (network flow or ILP)
//  4. cost-driven skew optimization (min-Delta or weighted-sum)
//  5. cost evaluation / convergence check
//  6. pseudo-net incremental placement, looping back to 3
//
// Run executes the whole flow and reports the paper's metrics (AFD, tapping
// wirelength, signal wirelength, power) for both the base case (after the
// first assignment, Table III) and the converged result (Table IV).
package core

import (
	"errors"
	"fmt"
	"math"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/power"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
)

// Assigner selects the stage-3 formulation.
type Assigner int

// Stage-3 assignment formulations.
const (
	NetworkFlow Assigner = iota // Section V: min total tapping cost
	ILP                         // Section VI: min max load capacitance
)

func (a Assigner) String() string {
	if a == ILP {
		return "ilp"
	}
	return "network-flow"
}

// SkewObjective selects the stage-4 cost-driven formulation.
type SkewObjective int

// Stage-4 objectives.
const (
	MinDelta    SkewObjective = iota // minimize max anchor mismatch
	WeightedSum                      // minimize sum w_i |t_i - target_i|
)

// Flow constants no caller tunes.
const (
	ringFill    = 0.6  // ring side as a fraction of its tile
	tapWeight   = 8    // weight of tapping WL in the stage-5 overall cost
	convergeTol = 0.01 // relative cost improvement to keep iterating

	timingPaths = 8   // critical paths reweighted per timing-driven iteration
	timingDecay = 0.3 // fraction of a net's accumulated boost kept per iteration
	timingMaxW  = 4   // cap on any net's weight scale
)

// Config parameterizes the flow.
type Config struct {
	Params   rotary.Params // rotary ring electrical/timing constants
	TModel   timing.Model  // STA calibration
	PowerPar power.Params

	NumRings int // rings in the array (Table II's final column)

	Assigner  Assigner
	Objective SkewObjective

	MaxIters     int     // stage 3-6 iterations (default 5, as in the paper)
	PseudoWeight float64 // pseudo-net pull weight, ramped by iteration (default 4)

	SkipInitialPlace bool // reuse the circuit's existing placement

	// TimingDriven enables critical-path net reweighting inside the
	// re-optimization loop (ROADMAP item 3): before each stage-6 re-place,
	// the 8 lowest-slack sequential pairs under the current schedule are
	// extracted and the nets their D_max paths cross get a bounded weight
	// boost in the quadratic system (placer.Options.NetWeights), pulling
	// slow paths shorter. A net keeps 0.3 of its accumulated boost each
	// iteration and its scale is capped at 4. Default off; with it off the
	// flow is bit-identical to earlier releases.
	TimingDriven bool
	// TimingBoost is the scale increment applied to the most critical
	// path's nets, tapering linearly with rank (default 1.0). Negative
	// means zero boost: the overlay machinery runs but every net scale
	// stays exactly 1.0 — the identity mode the oracle checks against the
	// default flow.
	TimingBoost float64

	// Multilevel switches stage-1 global placement to the mPL-style
	// V-cycle (placer.Options.Multilevel): coarsen the circuit into a
	// cluster hierarchy, place the coarsest fully, interpolate back down
	// with bounded refinement per level. Default off and bit-free — with
	// it off the flow is bit-identical to earlier releases; with it on,
	// only stage 1 changes (stage-6 incremental re-places and ECO dirty
	// solves always stay flat, their warm starts make a V-cycle pure
	// overhead). Circuits too small to coarsen silently fall back to the
	// flat path.
	Multilevel bool

	// Strict disables every recovery policy and the degraded-result path:
	// the first stage failure returns immediately as a *StageError. With
	// Strict off (the default) Run relaxes infeasible subproblems along
	// documented ladders and, once the base case exists, turns later
	// unrecoverable failures into a Degraded result carrying the best
	// snapshot instead of an error. Every action taken either way is
	// recorded in Result.Events.
	Strict bool

	// Parallelism bounds the worker count of the parallel kernels (placer
	// CG, assignment candidate matrix): 0 = GOMAXPROCS, 1 = serial. Every
	// value produces bit-identical results (see internal/par).
	Parallelism int

	// Obs receives the flow's telemetry: hierarchical spans around the six
	// stages and each re-optimization iteration, plus the solver counters
	// of every stage, flushed to Result.Metrics on exit (including
	// Degraded exits). Nil falls back to the armed global registry (see
	// internal/obs); fully disarmed, instrumentation costs one atomic
	// load per solver entry and Result.Metrics stays nil.
	Obs *obs.Registry

	// Stop is an optional cooperative-cancellation token. Run checks it at
	// every stage boundary and threads it into every long solver loop (CG
	// iterations, simplex pivots, branch-and-bound nodes, augmenting-path
	// searches, candidate construction, skew feasibility rounds), so a
	// fired token surfaces within one inner iteration. Cancellation never
	// leaves a partial write: each solver hands back its best-so-far
	// state. In non-strict mode the run then degrades — the Result carries
	// the best consistent snapshot plus a Canceled or DeadlineExceeded
	// event — while strict mode raises the typed *StageError. Nil means
	// the run cannot be canceled.
	Stop *stop.Token

	// System optionally supplies a prebuilt quadratic placement system to
	// fork instead of assembling the CSR connectivity from scratch (see
	// placer.System.Fork). The serving layer uses this to amortize system
	// assembly across requests for the same circuit spec. It must have
	// been built for a circuit structurally identical to c (deterministic
	// generation guarantees this for equal specs); an obvious mismatch is
	// rejected as InvalidInput. Nil builds a fresh system.
	System *placer.System

	// TapCache optionally carries tapping-point solves across runs sharing
	// a ring array geometry. Nil uses a run-local cache.
	TapCache *assign.TapCache
}

func (c *Config) normalize() {
	if c.Params == (rotary.Params{}) {
		c.Params = rotary.DefaultParams()
	}
	if c.TModel.Intrinsic == nil {
		c.TModel = timing.DefaultModel()
	}
	if c.PowerPar == (power.Params{}) {
		c.PowerPar = power.DefaultParams()
	}
	if c.NumRings <= 0 {
		c.NumRings = 16
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 5
	}
	if c.PseudoWeight <= 0 {
		c.PseudoWeight = 4
	}
	if c.TimingBoost == 0 {
		c.TimingBoost = 1.0
	}
}

// Metrics are the paper's per-design measurements.
type Metrics struct {
	AFD         float64 // average flip-flop tapping distance, um
	TapWL       float64 // total tapping wirelength, um
	SignalWL    float64 // total signal-net HPWL, um
	TotalWL     float64 // TapWL + SignalWL
	MaxCap      float64 // max ring load capacitance, fF
	ClockPower  float64 // mW
	SignalPower float64 // mW
	TotalPower  float64 // mW (dynamic; leakage is reported separately)
	LeakPower   float64 // mW, eq. (9) -- placement independent
	WCP         float64 // wirelength-capacitance product (Table VII), um*pF
}

// Result is the output of Run.
type Result struct {
	Base       Metrics // after the first stage-3 assignment (Table III)
	Final      Metrics // converged (Table IV)
	PerIter    []Metrics
	Iterations int

	MaxSlack float64   // M* from stage 2, ps
	Schedule []float64 // final delay targets per flip-flop (by FF order)
	FFCells  []int     // cell IDs in flip-flop order
	Assign   *assign.Assignment
	Array    *rotary.Array

	WorkSlack float64 // slack margin the final schedule is feasible at, ps

	// Degraded reports that the re-optimization loop stopped on an
	// unrecoverable failure after the base case; the result then carries
	// the best consistent snapshot reached, not a converged one. The
	// triggering failure is the last Events entry.
	Degraded bool
	// Events logs, in order, every recovery and degradation action the
	// flow took instead of failing (and warnings such as a skipped in-loop
	// slack refresh). Empty on a clean run.
	Events []StageEvent

	// Metrics is the observability snapshot of the run — per-stage and
	// per-iteration spans plus every solver counter — taken at exit with
	// all spans closed. It is populated on successful AND Degraded exits
	// whenever a registry is in effect (Config.Obs set or the global
	// registry armed), and nil when observability is disarmed. Its spans
	// are the run's only wall-clock record (see CPUSeconds).
	Metrics *obs.Snapshot
}

// event appends a recovery/degradation record to the result log.
func (r *Result) event(stage, iter int, kind Kind, action string, err error) {
	r.Events = append(r.Events, StageEvent{Stage: stage, Iter: iter, Kind: kind, Action: action, Err: err})
}

// CPUSeconds splits a run's wall time into the two CPU columns of Tables III
// and IV, summed from the stage spans of its metrics snapshot: placement is
// stages 1 and 6 (stage1.place, stage6.place), optimization is max-slack,
// assignment, slack refresh and cost-driven skew (stage2.maxslack,
// stage3.assign, stage4.slack-refresh, stage4.skew). A nil snapshot — a run
// with observability disarmed — reports zeros.
func CPUSeconds(m *obs.Snapshot) (place, opt float64) {
	place = m.SpanSeconds("stage1.place") + m.SpanSeconds("stage6.place")
	for _, name := range []string{"stage2.maxslack", "stage3.assign", "stage4.slack-refresh", "stage4.skew"} {
		opt += m.SpanSeconds(name)
	}
	return place, opt
}

// Run executes the integrated flow on the circuit (placement is written onto
// it). The circuit must validate and have a non-empty die.
func Run(c *netlist.Circuit, cfg Config) (*Result, error) {
	cfg.normalize()
	if err := c.Validate(); err != nil {
		return nil, &StageError{Stage: 1, Kind: InvalidInput, Err: fmt.Errorf("invalid circuit: %w", err)}
	}
	ffCells := c.FlipFlops()
	if len(ffCells) == 0 && cfg.Strict {
		// A circuit with no flip-flops has nothing for stages 2-6 to
		// optimize. Strict mode keeps the hard error; otherwise the run ends
		// after stage 1 and the ring array (see flow.run).
		return nil, &StageError{Stage: 1, Kind: InvalidInput, Err: fmt.Errorf("circuit %q has no flip-flops", c.Name)}
	}
	f := newFlow(c, cfg, ffCells)
	// The deferred End is the structural guarantee that every span closes on
	// every exit path, raised errors included, since End recursively closes
	// open children.
	defer f.root.End()
	return f.run()
}

// flow is the state of one Run: its inputs, the result being filled, the
// telemetry handles, and the working (placement, schedule, assignment)
// triple the stages hand each other. Stage methods read and write it; run
// drives them, and exit is the one way out.
type flow struct {
	c    *netlist.Circuit
	cfg  Config
	res  *Result
	reg  *obs.Registry
	root *obs.Span

	n     int         // flip-flops
	ffIdx map[int]int // cell ID -> flip-flop index
	psys  *placer.System
	tap   *assign.TapCache

	iter     int  // re-optimization iteration, 0 before the loop
	based    bool // the base case exists: failures now keep the best snapshot
	pairs    []skew.SeqPair
	sched    []float64
	asg      *assign.Assignment
	mWork    float64   // working slack the current schedule is feasible at
	msSched  []float64 // fresh max-slack schedule, stage 4's last-resort fallback
	netScale []float64 // timing-driven net criticality; nil when the mode is off

	best               snapshot
	prevCost, bestCost float64
	stall              int
	converged          bool
}

// snapshot captures one consistent (placement, schedule, assignment) state.
type snapshot struct {
	pos   []geom.Point
	sched []float64
	asg   *assign.Assignment
	m     Metrics
	mWork float64
}

// newFlow opens the run's telemetry: one root span for the run, under which
// the runner opens a child per stage and per re-optimization iteration.
func newFlow(c *netlist.Circuit, cfg Config, ffCells []int) *flow {
	f := &flow{c: c, cfg: cfg, res: &Result{FFCells: ffCells}, n: len(ffCells), reg: obs.Resolve(cfg.Obs)}
	f.ffIdx = make(map[int]int, f.n)
	for i, id := range ffCells {
		f.ffIdx[id] = i
	}
	f.reg.Add("core.runs", 1)
	f.root = f.reg.StartSpan("core.Run",
		obs.S("circuit", c.Name),
		obs.S("assigner", cfg.Assigner.String()),
		obs.I("rings", cfg.NumRings),
		obs.I("flipflops", f.n))
	// The tapping-solve cache lives for the whole flow: across the
	// re-optimization loop most flip-flops keep their (position, target)
	// pair from one iteration to the next, so their candidate arcs come from
	// the cache instead of being re-solved.
	f.tap = cfg.TapCache
	if f.tap == nil {
		f.tap = assign.NewTapCache()
	}
	return f
}

// step is one unit the runner drives: an optional stop-token check at its
// boundary, then its body inside its own span.
type step struct {
	gate      string // when set, a fired stop token fails the run here ...
	gateStage int    // ... charged to this stage
	span      string // "" runs the body without a span of its own
	attrs     []obs.Attr
	body      func(sp *obs.Span) *StageError
}

// do runs steps in order under parent and returns the first failure. It is
// the only place the flow opens and ends a stage span or checks the stop
// token between stages.
func (f *flow) do(parent *obs.Span, steps ...step) *StageError {
	for _, st := range steps {
		if st.gate != "" {
			if err := f.cfg.Stop.Err(); err != nil {
				return f.fail(st.gateStage, fmt.Errorf("%s: %w", st.gate, err))
			}
		}
		var sp *obs.Span
		if st.span != "" {
			sp = parent.Child(st.span, st.attrs...)
		}
		se := st.body(sp)
		sp.End()
		if se != nil {
			return se
		}
	}
	return nil
}

// run drives the stages of Fig. 3: stages 1-3 up to the base case, then the
// re-optimization loop. A circuit with no flip-flops leaves after stage 1
// and the ring array — a placeable netlist and a legitimate clock resource
// with nothing for stages 2-6 to optimize — with an empty assignment and
// signal-only metrics.
func (f *flow) run() (*Result, error) {
	prefix := []step{
		{body: f.system},
		{span: "stage1.place", body: f.place},
		{gate: "after placement", gateStage: 2, body: f.ringArray},
	}
	if f.n > 0 {
		prefix = append(prefix,
			step{span: "stage2.maxslack", body: f.maxSlack},
			step{span: "stage3.assign", body: f.assignRings})
	}
	if se := f.do(f.root, prefix...); se != nil {
		return f.exit(se)
	}
	if f.n == 0 {
		f.res.event(2, 0, InvalidInput, "no flip-flops: skipping skew, assignment, and re-optimization stages", nil)
		return f.exit(nil)
	}
	f.setBase()
	for f.iter = 1; f.iter <= f.cfg.MaxIters && !f.converged; f.iter++ {
		it := step{gate: "before iteration", gateStage: 6,
			span: "flow.iter", attrs: []obs.Attr{obs.I("iter", f.iter)}, body: f.iterate}
		if se := f.do(f.root, it); se != nil {
			return f.exit(se)
		}
	}
	return f.exit(nil)
}

// fail types a stage failure at the current iteration.
func (f *flow) fail(stage int, err error) *StageError {
	return stageErr(stage, f.iter, err)
}

// exit is the run's one way out, for clean ends and failures alike, and the
// one place the failure policy is decided:
//
//   - Strict raises every failure as its *StageError;
//   - before the base case exists, a stop degrades to the partial result
//     reached so far, and any other failure raises — there is nothing to
//     fall back to;
//   - after it, every failure degrades to the best snapshot.
//
// Every result-returning path then flushes telemetry into Result.Metrics,
// after ending the root span so every recorded duration is final.
func (f *flow) exit(se *StageError) (*Result, error) {
	res := f.res
	if se != nil {
		if f.cfg.Strict || !f.based && !stop.IsStop(se.Err) {
			return nil, se
		}
		action := "stopping re-optimization; keeping best snapshot"
		if !f.based {
			action = "stopped before the base case; returning partial result"
		}
		res.event(se.Stage, se.Iter, se.Kind, action, se.Err)
		res.Degraded = true
	}
	if f.based {
		if se := f.restoreBest(); se != nil {
			return nil, se
		}
	} else {
		f.partial(se)
	}
	if f.reg != nil {
		f.reg.Add("core.events", int64(len(res.Events)))
		if res.Degraded {
			f.reg.Add("core.degraded", 1)
		}
		f.root.End()
		res.Metrics = f.reg.Snapshot()
	}
	return res, nil
}

// partial completes a result that ends before the base case exists. The
// consistent prefix reached so far (a legalized placement, the ring array,
// possibly a stage-2 schedule) is still a valid — if empty-handed — result.
func (f *flow) partial(se *StageError) {
	c, cfg, res := f.c, f.cfg, f.res
	if se != nil && se.Stage == 1 && !cfg.SkipInitialPlace {
		// The stopped solve wrote its best iterate onto the circuit;
		// legalization turns it into a usable (overlap-free) placement.
		if err := placer.Legalize(c); err != nil {
			res.event(1, 0, Internal, "legalizing partial placement failed", err)
		}
	}
	if res.Array == nil {
		if a, err := rotary.SquareArray(c.Die, cfg.NumRings, ringFill, cfg.Params); err == nil {
			res.Array = a
		}
	}
	if res.Assign == nil {
		numRings := 0
		if res.Array != nil {
			numRings = len(res.Array.Rings)
		}
		res.Assign = &assign.Assignment{Ring: []int{}, Taps: []rotary.Tap{}, Loads: make([]float64, numRings)}
	}
	if res.Schedule == nil {
		res.Schedule = []float64{}
	}
	res.Base = measure(c, cfg, res.Assign, f.n)
	res.Final = res.Base
	res.PerIter = append(res.PerIter, res.Base)
}

// restoreBest writes the best iterate back, so the reported schedule
// provably satisfies the timing constraints of the reported cell locations.
func (f *flow) restoreBest() *StageError {
	res, best := f.res, f.best
	if err := f.c.SetPositions(best.pos); err != nil {
		// The snapshot came from this circuit, so a mismatch here is a
		// broken flow invariant, not recoverable state.
		return &StageError{Stage: 5, Iter: res.Iterations, Kind: Internal, Err: fmt.Errorf("restoring best placement: %w", err)}
	}
	res.Assign, res.Schedule, res.Final, res.WorkSlack = best.asg, best.sched, best.m, best.mWork
	return nil
}

// system sets up the quadratic placement system, assembled once and reused
// by every placer call of the run — the initial global placement and all
// stage-6 incremental re-placements — because the net connectivity it
// encodes never changes across flow iterations; only the anchor overlay
// (pseudo-nets, stability anchors) differs per solve. A template for another
// circuit in cfg.System is the caller's mistake, hence InvalidInput.
func (f *flow) system(*obs.Span) *StageError {
	sys, err := newSystem(f.c, f.cfg, f.reg)
	if err != nil && f.cfg.System != nil {
		return &StageError{Stage: 1, Kind: InvalidInput, Err: err}
	}
	if err != nil {
		return f.fail(1, err)
	}
	f.psys = sys
	return nil
}

// newSystem forks the caller-supplied template cfg.System for c — the fork
// shares the immutable connectivity and carries run-local mutable state —
// and builds a fresh system when there is none.
func newSystem(c *netlist.Circuit, cfg Config, reg *obs.Registry) (*placer.System, error) {
	if cfg.System != nil {
		sys, err := cfg.System.Fork(c, reg)
		if err != nil {
			return nil, fmt.Errorf("forking placement system: %w", err)
		}
		return sys, nil
	}
	sys, err := placer.NewSystem(c, reg)
	if err != nil {
		return nil, fmt.Errorf("placement system: %w", err)
	}
	return sys, nil
}

// solve runs one placement solve under the conjugate-gradients stagnation
// ladder, the one recoverable placer failure: the positions written back
// are a usable iterate, and one retry at a 100x looser tolerance almost
// always converges; if it stagnates too, the best-effort iterate is kept
// and legalization makes it usable. Strict mode skips the ladder.
func (f *flow) solve(stage int, what string, run func(placer.Options) error, opt placer.Options) error {
	err := run(opt)
	if err != nil && errors.Is(err, placer.ErrNonConverged) && !f.cfg.Strict {
		f.res.event(stage, f.iter, NonConverged, "retrying "+what+" placement at 100x looser CG tolerance", err)
		opt.CGTol = 1e-4
		err = run(opt)
		if err != nil && errors.Is(err, placer.ErrNonConverged) {
			f.res.event(stage, f.iter, NonConverged, "keeping best-effort placement from stagnated solve", err)
			err = nil
		}
	}
	if err != nil {
		return fmt.Errorf("%s placement: %w", what, err)
	}
	return nil
}

// place is stage 1: global placement, legalization and detailed placement.
func (f *flow) place(sp *obs.Span) *StageError {
	if f.cfg.SkipInitialPlace {
		return nil
	}
	if f.cfg.Multilevel {
		f.reg.Add("core.ml.runs", 1)
		sp.Set(obs.S("multilevel", "on"))
	}
	opt := placer.Options{Parallelism: f.cfg.Parallelism, Obs: f.reg, Stop: f.cfg.Stop, Multilevel: f.cfg.Multilevel}
	if err := f.solve(1, "global", f.psys.Global, opt); err != nil {
		return f.fail(1, err)
	}
	if err := placer.Legalize(f.c); err != nil {
		return f.fail(1, fmt.Errorf("legalization: %w", err))
	}
	// Detailed refinement only on the initial placement: inside the loop,
	// swap-based refinement would pull flip-flops off the tapping points the
	// pseudo-nets just placed them at.
	if _, err := placer.Detailed(f.c, 2); err != nil {
		return f.fail(1, fmt.Errorf("detailed placement: %w", err))
	}
	return nil
}

// ringArray lays the rotary ring array over the die.
func (f *flow) ringArray(*obs.Span) *StageError {
	arr, err := rotary.SquareArray(f.c.Die, f.cfg.NumRings, ringFill, f.cfg.Params)
	if err != nil {
		return &StageError{Stage: 3, Kind: InvalidInput, Err: fmt.Errorf("ring array: %w", err)}
	}
	f.res.Array = arr
	return nil
}

// maxSlack is stage 2: max-slack skew optimization. No recovery ladder
// exists here: with nothing assigned yet there is no weaker schedule to
// fall back to, so an unsatisfiable constraint system is a typed failure.
func (f *flow) maxSlack(sp *obs.Span) *StageError {
	pairs, err := seqPairs(f.c, f.cfg.TModel, f.ffIdx)
	if err != nil {
		return f.fail(2, err)
	}
	m, sched, err := skew.MaxSlackExactStop(f.cfg.Stop, f.n, pairs, f.cfg.Params.Period, f.cfg.TModel.TSetup, f.cfg.TModel.THold)
	if err != nil {
		return f.fail(2, fmt.Errorf("max-slack skew optimization: %w", err))
	}
	f.res.MaxSlack, f.res.Schedule, f.sched = m, sched, sched
	sp.Set(obs.I("pairs", len(pairs)), obs.F("max_slack_ps", m))
	return nil
}

// assignRings is stage 3, before the loop (the base case) and in each inner
// round of it: assignment to the current schedule under assign's
// infeasibility-recovery ladder (assign.Recover) — the default instance
// first, then progressively wider candidate sets and relaxed ring
// capacities, and as a last resort the nearest-point tapping fallback
// (recorded, since fallback taps do not realize the skew targets). Strict
// mode skips the ladder.
func (f *flow) assignRings(*obs.Span) *StageError {
	ffs := make([]assign.FF, f.n)
	for i, id := range f.res.FFCells {
		ffs[i] = assign.FF{Cell: id, Pos: f.c.Cells[id].Pos, Target: f.sched[i]}
	}
	p := &assign.Problem{
		Array:       f.res.Array,
		FFs:         ffs,
		Parallelism: f.cfg.Parallelism,
		Cache:       f.tap,
		Obs:         f.reg,
		Stop:        f.cfg.Stop,
	}
	solve := assign.MinCost
	if f.cfg.Assigner == ILP {
		solve = func(p *assign.Problem) (*assign.Assignment, error) {
			a, _, err := assign.MinMaxCap(p)
			return a, err
		}
	}
	relaxed := func(action string, err error) {
		f.res.event(3, f.iter, Infeasible, action, err)
		f.reg.Add("core.recover.assign", 1)
	}
	if f.cfg.Strict {
		relaxed = nil
	}
	a, err := assign.Recover(p, solve, solve, relaxed)
	if err != nil {
		return f.fail(3, fmt.Errorf("assignment: %w", err))
	}
	if len(a.Fallbacks) > 0 {
		f.res.event(3, f.iter, Infeasible,
			fmt.Sprintf("%d flip-flop(s) tapped via nearest-point fallback", len(a.Fallbacks)), nil)
	}
	f.asg = a
	return nil
}

// setBase records the base case (Table III) after the first assignment and
// seeds the loop's best snapshot and stage-5 cost with it.
func (f *flow) setBase() {
	res := f.res
	res.Assign = f.asg
	res.Base = measure(f.c, f.cfg, f.asg, f.n)
	res.Final = res.Base
	res.PerIter = append(res.PerIter, res.Base)
	res.WorkSlack = skew.WorkSlack(res.MaxSlack)
	f.best = snapshot{pos: f.c.Positions(), sched: f.sched, asg: f.asg, m: res.Base, mWork: res.WorkSlack}
	f.prevCost = cost(f.cfg, res.Base)
	f.bestCost = f.prevCost
	// Timing-driven mode: one criticality scale per net, persistent across
	// iterations so the exponential-decay history damps oscillation. Nil
	// when the mode is off — the placer then takes its untouched base path.
	if f.cfg.TimingDriven {
		f.netScale = make([]float64, len(f.c.Nets))
		for i := range f.netScale {
			f.netScale[i] = 1
		}
	}
	f.based = true
}

// cost is the stage-5 objective. The network-flow formulation optimizes
// wirelength (weighted sum of tapping and signal WL); the ILP formulation
// optimizes frequency, so its iterations are judged by the
// wirelength-capacitance product instead (Table VII's metric).
func cost(cfg Config, m Metrics) float64 {
	if cfg.Assigner == ILP {
		return m.WCP
	}
	return tapWeight*m.TapWL + m.SignalWL
}

// iterate is one pass of the re-optimization loop (stages 6, 4, 3, 5): move
// the flip-flops toward their current tapping points, then re-derive a
// consistent (timing, schedule, assignment) triple for the new placement and
// measure it.
func (f *flow) iterate(it *obs.Span) *StageError {
	f.reg.Add("core.iterations", 1)
	var steps []step
	if f.cfg.TimingDriven {
		steps = append(steps, step{span: "stage6.reweight", body: f.reweight})
	}
	steps = append(steps,
		step{span: "stage6.place", body: f.replace},
		step{span: "stage4.slack-refresh", body: f.refreshSlack})
	// Inner fixed point of stages 4 and 3: the schedule chases the nearest
	// ring phases and the assignment chases the schedule; two rounds settle
	// the pair for the current placement.
	for round := 0; round < 2; round++ {
		r := []obs.Attr{obs.I("round", round)}
		steps = append(steps,
			step{span: "stage4.skew", attrs: r, body: f.costSkew},
			step{span: "stage3.assign", attrs: r, body: f.assignRings})
	}
	return f.do(it, append(steps, step{span: "stage5.evaluate", body: f.evaluate})...)
}

// replace is stage 6: pseudo-net incremental placement toward the current
// assignment's tapping points, with a pull that ramps by iteration.
func (f *flow) replace(*obs.Span) *StageError {
	pn := make([]placer.PseudoNet, 0, f.n)
	for i, id := range f.res.FFCells {
		pn = append(pn, placer.PseudoNet{
			Cell:   id,
			Target: f.asg.Taps[i].Point,
			Weight: f.cfg.PseudoWeight * float64(f.iter),
		})
	}
	opt := placer.Options{PseudoNets: pn, NetWeights: f.netScale, Parallelism: f.cfg.Parallelism, Obs: f.reg, Stop: f.cfg.Stop}
	if err := f.solve(6, "incremental", f.psys.Incremental, opt); err != nil {
		return f.fail(6, err)
	}
	if err := placer.Legalize(f.c); err != nil {
		return f.fail(6, fmt.Errorf("legalization: %w", err))
	}
	// Recover signal wirelength disturbed by the pull + legalization,
	// holding the flip-flops where the pseudo-nets put them.
	if _, err := placer.DetailedExcluding(f.c, 1, f.res.FFCells); err != nil {
		return f.fail(6, fmt.Errorf("detailed placement: %w", err))
	}
	return nil
}

// refreshSlack re-derives the timing pairs and the working slack for the new
// placement. A failed refresh that is neither a stop nor strict keeps the
// previous margin, with a warning event rather than silently pretending the
// refresh happened.
func (f *flow) refreshSlack(*obs.Span) *StageError {
	pairs, err := seqPairs(f.c, f.cfg.TModel, f.ffIdx)
	if err != nil {
		return f.fail(4, err)
	}
	f.pairs, f.mWork, f.msSched = pairs, f.res.WorkSlack, nil
	m, sched, err := skew.MaxSlackExactStop(f.cfg.Stop, f.n, pairs, f.cfg.Params.Period, f.cfg.TModel.TSetup, f.cfg.TModel.THold)
	switch {
	case err == nil:
		f.mWork, f.msSched = skew.WorkSlack(m), sched
	case stop.IsStop(err) || f.cfg.Strict:
		// A fired token is not a property of this placement; the loop stops
		// on the snapshot rather than optimizing against stale margins.
		return f.fail(2, fmt.Errorf("in-loop slack refresh: %w", err))
	default:
		f.res.event(2, f.iter, Classify(err), "in-loop slack refresh failed; reusing previous working slack", err)
	}
	return nil
}

// costSkew is stage 4: the cost-driven schedule for the current assignment,
// under the slack-relaxation ladder (skew.Margins): the full working slack,
// half of it, then none; if even the zero-margin system is infeasible it
// falls back to the fresh max-slack schedule (feasible by construction).
// The working slack becomes the margin the schedule is feasible at. Strict
// mode and non-infeasibility errors skip the ladder entirely.
func (f *flow) costSkew(*obs.Span) *StageError {
	T := f.cfg.Params.Period
	ladder := skew.Margins(f.mWork)
	var err error
	for li, m := range ladder {
		cons := skew.Constraints(f.pairs, T, m, f.cfg.TModel.TSetup, f.cfg.TModel.THold)
		var t []float64
		if t, err = f.costDriven(cons); err == nil {
			f.sched, f.mWork = t, m
			return nil
		}
		if f.cfg.Strict || !errors.Is(err, skew.ErrInfeasible) {
			return f.fail(4, fmt.Errorf("cost-driven skew: %w", err))
		}
		if li+1 < len(ladder) {
			f.res.event(4, f.iter, Infeasible,
				fmt.Sprintf("relaxing working slack to %.4g ps", ladder[li+1]), err)
			f.reg.Add("core.recover.skew", 1)
		}
	}
	if f.msSched == nil {
		return f.fail(4, fmt.Errorf("cost-driven skew: %w", err))
	}
	f.res.event(4, f.iter, Infeasible, "falling back to the max-slack schedule", err)
	f.reg.Add("core.recover.skew", 1)
	f.sched = f.msSched
	return nil
}

// evaluate is stage 5: measure the iterate, keep it if it is the best so
// far, and test convergence on the overall cost, the paper's weighted sum of
// total tapping cost and traditional placement cost. One stalled iteration
// is tolerated (the pseudo-net ramp often recovers it); two in a row end the
// loop.
func (f *flow) evaluate(sp *obs.Span) *StageError {
	m := measure(f.c, f.cfg, f.asg, f.n)
	f.res.PerIter = append(f.res.PerIter, m)
	f.res.Iterations = f.iter
	now := cost(f.cfg, m)
	if now < f.bestCost {
		f.bestCost = now
		f.best = snapshot{pos: f.c.Positions(), sched: f.sched, asg: f.asg, m: m, mWork: f.mWork}
	}
	if f.prevCost-now < convergeTol*f.prevCost {
		f.stall++
		f.converged = f.stall >= 2
	} else {
		f.stall = 0
	}
	f.prevCost = now
	sp.Set(obs.F("cost", now))
	return nil
}

// seqPairs extracts the sequential pairs of the current placement
// (skew.SeqPairs), naming the failing stage in the error.
func seqPairs(c *netlist.Circuit, m timing.Model, ffIdx map[int]int) ([]skew.SeqPair, error) {
	pairs, err := skew.SeqPairs(c, m, ffIdx)
	if err != nil {
		return nil, fmt.Errorf("core: timing analysis: %w", err)
	}
	return pairs, nil
}

// costDriven runs the stage-4 skew optimization: anchors are the phases at
// the nearest points of each flip-flop's assigned ring, period-shifted next
// to the current schedule so the |t - target| costs are meaningful.
func (f *flow) costDriven(cons []skew.DiffConstraint) ([]float64, error) {
	T := f.cfg.Params.Period
	anchors := make([]skew.Anchor, f.n)
	targets := make([]float64, f.n)
	weights := make([]float64, f.n)
	for i, id := range f.res.FFCells {
		ring := f.res.Array.Rings[f.asg.Ring[i]]
		s, _, dist := ring.Nearest(f.c.Cells[id].Pos)
		a := ring.DelayAt(s, T)
		// Shift the anchor by whole periods to sit nearest the current
		// schedule (clock phase is periodic; the absolute differences in
		// the cost-driven formulations are not).
		k := math.Round((f.sched[i] - a) / T)
		a += k * T
		tci := f.cfg.Params.StubDelay(dist)
		anchors[i] = skew.Anchor{A: a, TCI: tci}
		targets[i] = a + tci
		weights[i] = math.Max(1, dist)
	}
	if f.cfg.Objective == WeightedSum {
		_, t, err := skew.WeightedSumStop(f.cfg.Stop, f.n, cons, targets, weights)
		return t, err
	}
	_, t, err := skew.MinDeltaStop(f.cfg.Stop, f.n, cons, anchors, 0)
	return t, err
}

// measure collects the paper's metrics for the current placement+assignment.
func measure(c *netlist.Circuit, cfg Config, asg *assign.Assignment, numFF int) Metrics {
	m := Metrics{
		AFD:      asg.AvgDist,
		TapWL:    asg.Total,
		SignalWL: c.SignalWL(),
		MaxCap:   asg.MaxCap,
	}
	m.TotalWL = m.TapWL + m.SignalWL
	m.ClockPower = cfg.PowerPar.Clock(m.TapWL, numFF)
	m.SignalPower = cfg.PowerPar.Signal(c).Power
	m.TotalPower = m.ClockPower + m.SignalPower
	st := c.Stats()
	m.LeakPower = cfg.PowerPar.Leakage(st.Cells-st.FlipFlops, st.FlipFlops)
	m.WCP = m.TotalWL * m.MaxCap / 1000 // um * pF
	return m
}
