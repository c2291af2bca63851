package serve

import (
	"encoding/json"
	"fmt"
	"math"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
)

// maxECODeltas caps the delta batch one request may carry. ECO is for small
// edits; a batch past this size should be a fresh placement job instead.
const maxECODeltas = 64

// maxDeltaIndex bounds cell/net indices at admission. The real bound is the
// circuit size, which eco.Apply enforces; this only keeps absurd indices out
// of error messages and logs.
const maxDeltaIndex = 1 << 31

// ECORequest is the wire format of one incremental re-optimization job: a
// circuit spec identifying the base placement (built once per spec and
// cached, exactly like job templates) plus the delta batch to absorb.
type ECORequest struct {
	Circuit CircuitSpec `json:"circuit"`
	Rings   int         `json:"rings,omitempty"` // default 16
	Iters   int         `json:"iters,omitempty"` // base-flow iterations, default 5

	// Deltas is the edit batch, applied in order with sequence semantics.
	Deltas []eco.Delta `json:"deltas"`

	// DeadlineMS bounds the whole request, base-state wait and queue time
	// included. 0 uses the server default.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// Strict turns a mid-apply failure into a 422 instead of a rolled-back
	// degraded 200.
	Strict bool `json:"strict,omitempty"`

	// Telemetry asks for the request's deterministic counters and span
	// trace in the response.
	Telemetry bool `json:"telemetry,omitempty"`
}

// ParseECORequest decodes and validates one ECO request with the same
// discipline as ParseJobRequest: unknown fields are rejected, every numeric
// field is range-checked, and every delta is shallowly validated (known op,
// sane indices, finite coordinates) so the worker only ever sees semantic
// failures, which eco.Apply reports per delta.
func ParseECORequest(data []byte, lim Limits) (*ECORequest, error) {
	var req ECORequest
	if err := decodeStrict(data, "eco", &req); err != nil {
		return nil, err
	}
	if err := lim.check(req.Circuit, req.Rings, req.Iters, req.DeadlineMS); err != nil {
		return nil, err
	}
	if len(req.Deltas) == 0 {
		return nil, fmt.Errorf("deltas: empty (an ECO request must edit something)")
	}
	if len(req.Deltas) > maxECODeltas {
		return nil, fmt.Errorf("deltas: %d exceeds the per-request cap %d", len(req.Deltas), maxECODeltas)
	}
	for i, d := range req.Deltas {
		switch d.Op {
		case eco.OpMoveFF, eco.OpAddFF, eco.OpRemoveFF, eco.OpRetargetRing, eco.OpEditNet:
		default:
			return nil, fmt.Errorf("deltas[%d]: unknown op %q", i, d.Op)
		}
		if d.Cell < 0 || d.Cell >= maxDeltaIndex {
			return nil, fmt.Errorf("deltas[%d]: cell %d out of range [0, %d)", i, d.Cell, maxDeltaIndex)
		}
		if d.Net < 0 || d.Net >= maxDeltaIndex {
			return nil, fmt.Errorf("deltas[%d]: net %d out of range [0, %d)", i, d.Net, maxDeltaIndex)
		}
		if d.Ring < 0 || d.Ring > 1024 {
			return nil, fmt.Errorf("deltas[%d]: ring %d out of range [0, 1024]", i, d.Ring)
		}
		if math.IsNaN(d.X) || math.IsInf(d.X, 0) || math.IsNaN(d.Y) || math.IsInf(d.Y, 0) {
			return nil, fmt.Errorf("deltas[%d]: non-finite coordinates", i)
		}
	}
	return &req, nil
}

// baseKey identifies the shareable base state: the circuit spec plus every
// knob that shapes the base flow's answer.
func (r *ECORequest) baseKey() string {
	return fmt.Sprintf("c%d-f%d-s%d-r%d-i%d", r.Circuit.Cells, r.Circuit.FlipFlops, r.Circuit.Seed, rings(r.Rings), r.Iters)
}

func (r *ECORequest) spec() netlist.GenSpec {
	return netlist.GenSpec{
		Name:      fmt.Sprintf("eco-c%d-f%d-s%d", r.Circuit.Cells, r.Circuit.FlipFlops, r.Circuit.Seed),
		Cells:     r.Circuit.Cells,
		FlipFlops: r.Circuit.FlipFlops,
		Seed:      r.Circuit.Seed,
	}
}

// ECOResponse is the wire format of a completed ECO request: what the apply
// did (the Outcome, flattened) plus the re-measured design quality. On a
// degraded response the state was rolled back and Final describes the
// restored pre-edit design; the triggering failure is the last event.
type ECOResponse struct {
	Circuit  string   `json:"circuit"`
	Degraded bool     `json:"degraded"`
	Events   []string `json:"events,omitempty"`

	Applied       int  `json:"applied"`
	NoOps         int  `json:"noops"`
	DirtyCells    int  `json:"dirty_cells"`
	MovedCells    int  `json:"moved_cells"`
	DirtyFFs      int  `json:"dirty_ffs"`
	SystemPatched int  `json:"system_patched"`
	SystemRebuilt bool `json:"system_rebuilt"`
	SchedRounds   int  `json:"sched_rounds"`

	WorkSlackPS float64      `json:"work_slack_ps"`
	TapTotalUM  float64      `json:"tap_total_um"`
	Final       core.Metrics `json:"final"`

	ElapsedMS float64 `json:"elapsed_ms"`
	BaseHit   bool    `json:"base_hit"`

	Counters json.RawMessage `json:"counters,omitempty"`
	Trace    string          `json:"trace,omitempty"`
}

// ecoBase is the per-spec state every ECO request against the same base
// placement shares: the placed circuit (cloned per request — requests mutate
// their clone), the completed result that seeds each request's ECO state,
// the CSR template forked per request, and the tapping cache the base run
// filled (internally synchronized, shared directly).
type ecoBase struct {
	circuit *netlist.Circuit
	res     *core.Result
	sys     *placer.System
	tap     *assign.TapCache
}

// buildECOBase runs the full flow once for a spec and captures everything
// later ECO requests reuse. Like template builds, the base run carries no
// deadline and no registry — it is a shared cost no single request should
// account for or be able to truncate for everyone else.
func (s *Server) buildECOBase(req *ECORequest) (*ecoBase, error) {
	c, err := netlist.Generate(req.spec())
	if err != nil {
		return nil, err
	}
	sys, err := placer.NewSystem(c, nil)
	if err != nil {
		return nil, err
	}
	tap := assign.NewTapCache()
	cfg := core.Config{
		NumRings:    rings(req.Rings),
		MaxIters:    req.Iters,
		Parallelism: s.perJobWorkers(),
		System:      sys,
		TapCache:    tap,
	}
	res, err := s.runFlow(c, cfg)
	if err != nil {
		return nil, err
	}
	if res == nil || res.Degraded || res.Assign == nil {
		return nil, fmt.Errorf("base flow yielded no clean state to edit")
	}
	return &ecoBase{circuit: c, res: res, sys: sys, tap: tap}, nil
}

func (r *ECORequest) fields() requestFields {
	return requestFields{r.Rings, r.Iters, r.DeadlineMS, r.Strict, r.Telemetry}
}

// prepare picks up (or builds) the shared base placement, clones it, seeds a
// fresh ECO state over the clone, and binds the delta batch to it. The clone
// means a failed or degraded apply never poisons the shared base.
func (r *ECORequest) prepare(s *Server, cfg core.Config) (func() (reply, error), int, error) {
	base, hit, err := s.ecoBases.lookup(r.baseKey(), func() (*ecoBase, error) {
		return s.buildECOBase(r)
	}, &s.stats.ecoBaseBuilds, &s.stats.ecoBaseHits)
	if err != nil {
		return nil, 500, fmt.Errorf("building ECO base placement: %v", err)
	}
	clone := base.circuit.Clone()
	cfg.System, cfg.TapCache = base.sys, base.tap
	st, err := core.NewECOState(clone, cfg, base.res)
	if err != nil {
		return nil, 500, fmt.Errorf("seeding ECO state: %v", err)
	}
	return func() (reply, error) {
		res, err := s.runECO(st, r.Deltas, cfg, eco.Options{Strict: r.Strict})
		if err != nil {
			return nil, err
		}
		out := res.Outcome
		return &ECOResponse{
			Circuit:       clone.Name,
			Degraded:      out.Degraded,
			Events:        out.Events,
			Applied:       out.Deltas,
			NoOps:         out.NoOps,
			DirtyCells:    out.DirtyCells,
			MovedCells:    out.MovedCells,
			DirtyFFs:      out.DirtyFFs,
			SystemPatched: out.SystemPatched,
			SystemRebuilt: out.SystemRebuilt,
			SchedRounds:   out.SchedRounds,
			WorkSlackPS:   sanitize(out.WorkSlack),
			TapTotalUM:    sanitize(out.Total),
			Final:         sanitizeMetrics(res.Final),
			BaseHit:       hit,
		}, nil
	}, 0, nil
}

func (r *ECOResponse) stamp(elapsedMS float64, counters json.RawMessage, trace string) bool {
	r.ElapsedMS, r.Counters, r.Trace = elapsedMS, counters, trace
	return r.Degraded
}
