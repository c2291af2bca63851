package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
)

// maxRequestBytes bounds the request body; a job spec is a few hundred
// bytes, so anything near the cap is garbage.
const maxRequestBytes = 1 << 20

// CircuitSpec names a deterministic synthetic circuit: the full generator
// input. Equal specs generate identical circuits (netlist.Generate is
// seed-deterministic), which is what lets the server share one placement
// system and tapping cache across every job carrying the same spec.
type CircuitSpec struct {
	Cells     int   `json:"cells"`
	FlipFlops int   `json:"flipflops"`
	Seed      int64 `json:"seed"`
}

// JobRequest is the wire format of one placement job.
type JobRequest struct {
	Circuit   CircuitSpec `json:"circuit"`
	Rings     int         `json:"rings,omitempty"`     // default 16
	Assigner  string      `json:"assigner,omitempty"`  // "flow" (default) | "ilp"
	Objective string      `json:"objective,omitempty"` // "delta" (default) | "sum"
	Iters     int         `json:"iters,omitempty"`     // stage 3-6 iterations, default 5

	// DeadlineMS is the job's total time budget, queue wait included. 0
	// uses the server default; values above the server max are rejected.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// Strict disables the flow's recovery ladders and the degraded-result
	// path: a deadline then fails the job instead of degrading it.
	Strict bool `json:"strict,omitempty"`

	// Telemetry asks for the job's deterministic counters and span trace
	// in the response.
	Telemetry bool `json:"telemetry,omitempty"`
}

// Limits are the admission bounds ParseJobRequest enforces. The zero value
// means the package defaults (50000 cells, 5m).
type Limits struct {
	MaxCells    int
	MaxDeadline time.Duration
}

// ParseJobRequest decodes and validates one job request. Unknown fields are
// rejected — a typoed knob silently ignored is worse than a 400 — and every
// numeric field is range-checked against the limits, so a decoded request
// is safe to hand to the generator and the flow unchecked.
func ParseJobRequest(data []byte, lim Limits) (*JobRequest, error) {
	var req JobRequest
	if err := decodeStrict(data, "job", &req); err != nil {
		return nil, err
	}
	if err := lim.check(req.Circuit, req.Rings, req.Iters, req.DeadlineMS); err != nil {
		return nil, err
	}
	switch req.Assigner {
	case "", "flow", "ilp":
	default:
		return nil, fmt.Errorf("unknown assigner %q (want flow or ilp)", req.Assigner)
	}
	switch req.Objective {
	case "", "delta", "sum":
	default:
		return nil, fmt.Errorf("unknown objective %q (want delta or sum)", req.Objective)
	}
	return &req, nil
}

// decodeStrict decodes one JSON request object into dst, rejecting unknown
// fields and trailing data; kind names the request in the error.
func decodeStrict(data []byte, kind string, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding %s request: %w", kind, err)
	}
	// A second document after the first is a malformed request, not data
	// to ignore.
	if dec.More() {
		return fmt.Errorf("decoding %s request: trailing data after JSON object", kind)
	}
	return nil
}

// check range-checks the fields every request kind carries against the
// limits, zero limits meaning the package defaults.
func (lim Limits) check(c CircuitSpec, numRings, iters, deadlineMS int) error {
	if lim.MaxCells <= 0 {
		lim.MaxCells = 50000
	}
	if lim.MaxDeadline <= 0 {
		lim.MaxDeadline = 5 * time.Minute
	}
	if c.Cells < 1 || c.Cells > lim.MaxCells {
		return fmt.Errorf("circuit.cells %d out of range [1, %d]", c.Cells, lim.MaxCells)
	}
	if c.FlipFlops < 0 || c.FlipFlops > c.Cells {
		return fmt.Errorf("circuit.flipflops %d out of range [0, %d]", c.FlipFlops, c.Cells)
	}
	if numRings < 0 || numRings > 1024 {
		return fmt.Errorf("rings %d out of range [0, 1024]", numRings)
	}
	if iters < 0 || iters > 100 {
		return fmt.Errorf("iters %d out of range [0, 100]", iters)
	}
	if deadlineMS < 0 || time.Duration(deadlineMS)*time.Millisecond > lim.MaxDeadline {
		return fmt.Errorf("deadline_ms %d out of range [0, %d]", deadlineMS, lim.MaxDeadline.Milliseconds())
	}
	return nil
}

// deadline resolves a request's effective time budget from its deadline_ms.
func deadline(ms int, def time.Duration) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return def
}

// rings resolves a request's effective ring count (default 16).
func rings(n int) int {
	if n > 0 {
		return n
	}
	return 16
}

// templateKey identifies the immutable state jobs with this request can
// share: the circuit spec plus everything that shapes the ring array.
func (r *JobRequest) templateKey() string {
	return fmt.Sprintf("c%d-f%d-s%d-r%d", r.Circuit.Cells, r.Circuit.FlipFlops, r.Circuit.Seed, rings(r.Rings))
}

func (r *JobRequest) spec() netlist.GenSpec {
	return netlist.GenSpec{
		Name:      fmt.Sprintf("job-c%d-f%d-s%d", r.Circuit.Cells, r.Circuit.FlipFlops, r.Circuit.Seed),
		Cells:     r.Circuit.Cells,
		FlipFlops: r.Circuit.FlipFlops,
		Seed:      r.Circuit.Seed,
	}
}

// JobEvent is one recovery/degradation action in the response.
type JobEvent struct {
	Stage  int    `json:"stage"`
	Iter   int    `json:"iter,omitempty"`
	Kind   string `json:"kind"`
	Action string `json:"action"`
	Err    string `json:"err,omitempty"`
}

// JobResponse is the wire format of a completed job.
type JobResponse struct {
	Circuit    string     `json:"circuit"`
	Degraded   bool       `json:"degraded"`
	Events     []JobEvent `json:"events,omitempty"`
	Iterations int        `json:"iterations"`
	MaxSlackPS float64    `json:"max_slack_ps"`

	Base  core.Metrics `json:"base"`
	Final core.Metrics `json:"final"`

	ElapsedMS   float64 `json:"elapsed_ms"`
	TemplateHit bool    `json:"template_hit"`

	// Telemetry payload, present when the request asked for it: the job's
	// deterministic counters (bit-identical for identical jobs) and its
	// span trace (wall-clock, scheduling-dependent).
	Counters json.RawMessage `json:"counters,omitempty"`
	Trace    string          `json:"trace,omitempty"`
}

func (r *JobRequest) fields() requestFields {
	return requestFields{r.Rings, r.Iters, r.DeadlineMS, r.Strict, r.Telemetry}
}

// prepare generates the job's circuit, picks up (or builds) the shared
// template for its spec, and binds the flow to both.
func (r *JobRequest) prepare(s *Server, cfg core.Config) (func() (reply, error), int, error) {
	c, err := netlist.Generate(r.spec())
	if err != nil {
		return nil, 400, fmt.Errorf("generating circuit: %v", err)
	}
	tmpl, hit, err := s.templates.lookup(r.templateKey(), func() (*template, error) {
		return buildTemplate(r)
	}, &s.stats.templateBuilds, &s.stats.templateHits)
	if err != nil {
		return nil, 500, fmt.Errorf("building placement template: %v", err)
	}
	cfg.System, cfg.TapCache = tmpl.sys, tmpl.tap
	if r.Assigner == "ilp" {
		cfg.Assigner = core.ILP
	}
	if r.Objective == "sum" {
		cfg.Objective = core.WeightedSum
	}
	return func() (reply, error) {
		res, err := s.runFlow(c, cfg)
		if err != nil {
			return nil, err
		}
		resp := &JobResponse{
			Circuit:     c.Name,
			Degraded:    res.Degraded,
			Iterations:  res.Iterations,
			MaxSlackPS:  sanitize(res.MaxSlack),
			Base:        sanitizeMetrics(res.Base),
			Final:       sanitizeMetrics(res.Final),
			TemplateHit: hit,
		}
		for _, ev := range res.Events {
			e := JobEvent{Stage: ev.Stage, Iter: ev.Iter, Kind: ev.Kind.String(), Action: ev.Action}
			if ev.Err != nil {
				e.Err = ev.Err.Error()
			}
			resp.Events = append(resp.Events, e)
		}
		return resp, nil
	}, 0, nil
}

func (r *JobResponse) stamp(elapsedMS float64, counters json.RawMessage, trace string) bool {
	r.ElapsedMS, r.Counters, r.Trace = elapsedMS, counters, trace
	return r.Degraded
}

// perJobWorkers carves the shared kernel-worker budget across the pool.
func (s *Server) perJobWorkers() int {
	w := s.cfg.Parallelism / s.cfg.Workers
	if w < 1 {
		w = 1
	}
	return w
}

// template is the immutable state every job with the same circuit spec can
// share: the quadratic placement system (forked per job, never solved on
// directly) and the tapping-solve cache (internally synchronized; keyed per
// ring-array geometry, which the template key encodes).
type template struct {
	sys *placer.System
	tap *assign.TapCache
}

// buildTemplate assembles the shareable immutable state for a circuit spec:
// a placement system built over a template-owned circuit (jobs fork it, the
// template itself is never solved on) and a tapping-solve cache. The
// template registry is nil on purpose — builds are a shared cost no single
// job should account for.
func buildTemplate(req *JobRequest) (*template, error) {
	tc, err := netlist.Generate(req.spec())
	if err != nil {
		return nil, err
	}
	sys, err := placer.NewSystem(tc, nil)
	if err != nil {
		return nil, err
	}
	return &template{sys: sys, tap: assign.NewTapCache()}, nil
}

// sanitize replaces non-finite floats with 0 so the response always
// marshals (encoding/json rejects NaN and Inf).
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func sanitizeMetrics(m core.Metrics) core.Metrics {
	m.AFD = sanitize(m.AFD)
	m.TapWL = sanitize(m.TapWL)
	m.SignalWL = sanitize(m.SignalWL)
	m.TotalWL = sanitize(m.TotalWL)
	m.MaxCap = sanitize(m.MaxCap)
	m.ClockPower = sanitize(m.ClockPower)
	m.SignalPower = sanitize(m.SignalPower)
	m.TotalPower = sanitize(m.TotalPower)
	m.LeakPower = sanitize(m.LeakPower)
	m.WCP = sanitize(m.WCP)
	return m
}
