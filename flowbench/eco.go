package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"time"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/serve"
)

// eco-serve sizes. Edits spread over several base circuits: how long an
// edit takes depends on its base (ring loads, assignment slack), and
// several bases keep two seeds' runs comparable. ecoBases x the ecoMix
// total = 42 edits leave ten samples beyond the 75th percentile.
const (
	ecoBases      = 7
	ecoCells      = 3000
	ecoFlipFlops  = ecoCells / 10
	ecoRings      = 16
	ecoIters      = 2
	ecoFlowRuns   = 2
	ecoDeadlineMS = 120000
)

// ecoMix is each base's share of the edit stream: eco.RandomDeltas' own
// proportions (moves twice as likely as each other kind), fixed so that two
// seeds differ in which cells they edit, not in how many edits of a slow
// kind they draw.
var ecoMix = []struct {
	op    string
	count int
}{
	{eco.OpMoveFF, 2},
	{eco.OpAddFF, 1},
	{eco.OpRemoveFF, 1},
	{eco.OpRetargetRing, 1},
	{eco.OpEditNet, 1},
}

// ecoBase is one base circuit of a run and the edits drawn against it.
type ecoBase struct {
	spec    serve.CircuitSpec
	circuit *netlist.Circuit // as generated, unplaced
	deltas  []eco.Delta
}

// genSpec is the generator input the server derives from a request's
// circuit spec, name included, so both sides build the same circuit.
func genSpec(spec serve.CircuitSpec) netlist.GenSpec {
	return netlist.GenSpec{
		Name:      fmt.Sprintf("eco-c%d-f%d-s%d", spec.Cells, spec.FlipFlops, spec.Seed),
		Cells:     spec.Cells,
		FlipFlops: spec.FlipFlops,
		Seed:      spec.Seed,
	}
}

// ecoDeltas draws base b's edits: single-delta edits in the ecoMix
// proportions, each valid against the base circuit (the server applies
// every request to its own copy of the base, so edits do not compose).
func ecoDeltas(seed int64, b int, base *netlist.Circuit) ([]eco.Delta, error) {
	rng := rand.New(rand.NewSource(genSeed(seed, 20001, b)))
	want := map[string]int{}
	total := 0
	for _, m := range ecoMix {
		want[m.op] = m.count
		total += m.count
	}
	ds := make([]eco.Delta, 0, total)
	for tries := 0; len(ds) < total; tries++ {
		if tries > 100*total {
			return nil, fmt.Errorf("could not draw %d edits in the fixed mix", total)
		}
		d := eco.RandomDeltas(rng, base, ecoRings, 1)
		if len(d) == 1 && want[d[0].Op] > 0 {
			want[d[0].Op]--
			ds = append(ds, d[0])
		}
	}
	return ds, nil
}

// ecoBody is the wire body of one edit request.
func ecoBody(spec serve.CircuitSpec, d eco.Delta, telemetry bool) ([]byte, error) {
	return json.Marshal(serve.ECORequest{
		Circuit:    spec,
		Rings:      ecoRings,
		Iters:      ecoIters,
		Deltas:     []eco.Delta{d},
		DeadlineMS: ecoDeadlineMS,
		Telemetry:  telemetry,
	})
}

// newServer starts the service the rotaryd daemon mounts, sized for one
// closed-loop client.
func newServer() *serve.Server {
	return serve.New(serve.Config{Workers: 1, Parallelism: parallelism()})
}

// drain stops the server's workers, waiting for them to exit.
func drain(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.Drain(ctx) // always nil: Drain waits for every admitted job
}

// post sends one edit to the server in-process, through the HTTP handler
// with no socket, and decodes the answer. m times the round trip.
func post(s *serve.Server, body []byte, m *meter) (*serve.ECOResponse, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/eco", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	m.time(func() { s.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp serve.ECOResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &resp, nil
}

// runECOWorkload sends the edit stream to an in-process serve.Server as
// POST /v1/eco calls from one closed-loop client. Set-up, once per base,
// generates the base circuit and has the server build its base placement
// (the base's first request); setup_s is the median over the bases.
// Rounds over the stream, which interleaves the bases, repeat until the
// run's seconds are used. Then each base flow runs again outside the
// server, ecoFlowRuns times: flow_s sums the bases' median core.Run times,
// and the run is the reference every distinct edit is replayed on through
// core.ApplyECO; each replayed design is checked, and the served answer
// must match it.
func runECOWorkload(o options) (*report, error) {
	srv := newServer()
	defer drain(srv)

	bases := make([]ecoBase, ecoBases)
	var setups, gens []float64
	for b := range bases {
		spec := serve.CircuitSpec{Cells: ecoCells, FlipFlops: ecoFlipFlops, Seed: genSeed(o.Seed, 20000, b)}
		t0 := time.Now()
		c, err := netlist.Generate(genSpec(spec))
		if err != nil {
			return nil, fmt.Errorf("generating base: %w", err)
		}
		gens = append(gens, time.Since(t0).Seconds())
		ds, err := ecoDeltas(o.Seed, b, c)
		if err != nil {
			return nil, err
		}
		body, err := ecoBody(spec, ds[0], false)
		if err != nil {
			return nil, err
		}
		if _, err := post(srv, body, &meter{}); err != nil {
			return nil, fmt.Errorf("building the ECO base: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		bases[b] = ecoBase{spec: spec, circuit: c, deltas: ds}
	}

	// The stream takes each base's k-th edit in turn.
	type edit struct {
		base  int
		delta eco.Delta
		plain []byte
		trace []byte
	}
	var edits []edit
	for k := range bases[0].deltas {
		for b, base := range bases {
			plain, err := ecoBody(base.spec, base.deltas[k], false)
			if err != nil {
				return nil, err
			}
			trace, err := ecoBody(base.spec, base.deltas[k], true)
			if err != nil {
				return nil, err
			}
			edits = append(edits, edit{base: b, delta: base.deltas[k], plain: plain, trace: trace})
		}
	}

	first := make([]*serve.ECOResponse, len(edits)) // each edit's first answer
	r := runRounds(o, len(edits), func(i int, traced bool, m *meter, acc layerAcc) error {
		body := edits[i].plain
		if traced {
			body = edits[i].trace
		}
		resp, err := post(srv, body, m)
		if err == nil && resp.Degraded {
			err = fmt.Errorf("degraded: %v", resp.Events)
		}
		if err == nil && first[i] != nil && !sameAnswer(resp, first[i]) {
			err = fmt.Errorf("answer differs from the first on identical input")
		}
		if err != nil {
			return fmt.Errorf("edit %v: %w", edits[i].delta, err)
		}
		if first[i] == nil {
			first[i] = resp
		}
		if traced {
			return addEditLayers(acc, resp, m.wall)
		}
		return nil
	})
	rep := &report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]float64{}}

	// Time the base flows and keep them as the references the served
	// answers are checked against.
	cfg := baseConfig(ecoRings)
	cfg.MaxIters = ecoIters
	flowRuns := ecoFlowRuns
	if o.Trace {
		flowRuns = 1
	}
	refAcc := layerAcc{}
	refs := make([]*reference, len(bases))
	var flowWall, flowCPU float64
	for b, base := range bases {
		var wall, cpu []float64
		for k := 0; k < flowRuns; k++ {
			rf, err := runReference(base.spec, cfg, o.Trace)
			if err != nil {
				return nil, err
			}
			wall = append(wall, rf.wall)
			cpu = append(cpu, rf.cpu)
			if refs[b] == nil {
				refs[b] = rf
			} else if rf.res.Final != refs[b].res.Final {
				return nil, fmt.Errorf("base flow differs between runs on identical input")
			}
		}
		flowWall += median(wall)
		flowCPU += median(cpu)
		if o.Trace {
			addFlowLayers(refAcc, refs[b].res)
		}
	}

	var q quality
	overlapEdits := 0
	for i, e := range edits {
		if first[i] == nil {
			continue // already counted as failed
		}
		ref := refs[e.base]
		ov, err := checkEdit(ref.circuit, ref.res, ref.cfg, e.delta, first[i])
		if err != nil {
			rep.Failed++
			fmt.Fprintf(o.Log, "FAIL edit %d (%v): %v\n", i, e.delta, err)
			continue
		}
		if ov > 0 {
			overlapEdits++
			fmt.Fprintf(o.Log, "WARN edit %d (%v): result not legalized, overlap area %.4g um^2\n", i, e.delta, ov)
		}
		f := first[i].Final
		q.add(f.TapWL, f.SignalWL, f.MaxCap, f.WCP, first[i].WorkSlackPS)
	}
	if !o.Trace {
		rep.Metrics["setup_s"] = median(setups)
		r.putTiming(rep.Metrics)
		rep.Metrics["flow_s"] = flowWall
		rep.Metrics["flow_cpu_s"] = flowCPU
		putQuality(rep.Metrics, q)
		putCommon(rep)
		return rep, nil
	}

	// Per-edit layer values are means over the edits of a round (the Go
	// runtime deltas stay per-round totals, as on the flow workloads); the
	// flow layers come from the traced base flows and the replay, summed
	// over the bases as the flow workloads sum over circuits.
	for _, a := range r.accs {
		for k, v := range a {
			if k != "go.alloc_mb" && k != "go.gc_cycles" {
				a[k] = v / float64(len(edits))
			}
		}
	}
	finishTapCacheRatio(refAcc)
	for _, base := range bases {
		if err := replayLayers(base.circuit.Clone(), cfg, refAcc); err != nil {
			rep.Attempted++
			rep.Failed++
			fmt.Fprintf(o.Log, "FAIL %v\n", err)
		}
	}
	refAcc.add("eco.overlap_edits", float64(overlapEdits))
	if ms := opMedians(r.plainWall); len(ms) > 0 {
		refAcc.add("eco.slowest_edit_ms", nearestRank(ms, 1)*1000)
	}
	rep.Metrics = layerMedians(append(r.accs, refAcc))
	rep.Metrics["netlist.generate_s"] = sum(gens)
	rep.Metrics["trace.overhead_frac"] = r.overhead()
	return rep, nil
}

// sameAnswer reports whether two answers to the same edit agree on every
// design field (timing fields excluded).
func sameAnswer(a, b *serve.ECOResponse) bool {
	return a.Final == b.Final && a.WorkSlackPS == b.WorkSlackPS && a.TapTotalUM == b.TapTotalUM &&
		a.DirtyCells == b.DirtyCells && a.Applied == b.Applied && a.NoOps == b.NoOps
}

// reference is one base flow run outside the server.
type reference struct {
	circuit   *netlist.Circuit
	res       *core.Result
	cfg       core.Config // carries the base's system and tapping cache
	wall, cpu float64
}

// runReference runs, outside the server, the base flow the server runs for
// the spec, timing the core.Run call. The returned configuration carries
// the base's placement system and tapping cache for replayed edits to
// share, as the server's requests do. Traced, the run records telemetry.
func runReference(spec serve.CircuitSpec, cfg core.Config, traced bool) (*reference, error) {
	c, err := netlist.Generate(genSpec(spec))
	if err != nil {
		return nil, err
	}
	rcfg := cfg
	if rcfg.System, err = placer.NewSystem(c, nil); err != nil {
		return nil, err
	}
	rcfg.TapCache = assign.NewTapCache()
	if traced {
		rcfg.Obs = obs.NewRegistry()
	}
	var res *core.Result
	m := &meter{}
	m.time(func() { res, err = core.Run(c, rcfg) })
	if cerr := checkFlow(c, rcfg, res, err); cerr != nil {
		return nil, fmt.Errorf("base flow: %w", cerr)
	}
	rcfg.Obs = nil
	return &reference{circuit: c, res: res, cfg: rcfg, wall: m.wall, cpu: m.cpu}, nil
}

// checkEdit applies d to a fresh copy of the reference base with
// core.ApplyECO, checks the resulting design, and requires the served
// answer to report the same design. It returns the design's largest cell
// overlap area, which the ECO mode does not promise to be 0.
func checkEdit(base *netlist.Circuit, res *core.Result, cfg core.Config, d eco.Delta, got *serve.ECOResponse) (float64, error) {
	c := base.Clone()
	st, err := core.NewECOState(c, cfg, res)
	if err != nil {
		return 0, err
	}
	out, err := core.ApplyECO(st, []eco.Delta{d}, cfg, eco.Options{})
	if err != nil {
		return 0, fmt.Errorf("reference apply: %w", err)
	}
	o := out.Outcome
	if o.Degraded {
		return 0, fmt.Errorf("reference apply degraded: %v", o.Events)
	}
	if err := checkDesign(design{
		Circuit:       st.Circuit,
		Params:        cfg.Params,
		TModel:        cfg.TModel,
		FFCells:       o.FFCells,
		Schedule:      o.Sched,
		WorkSlack:     o.WorkSlack,
		Assign:        o.Assign,
		Rings:         len(st.Array.Rings),
		Relaxed:       len(o.Events) > 0,
		CountCapacity: true,
		Unlegalized:   true,
	}); err != nil {
		return 0, err
	}
	if !closeTo(got.WorkSlackPS, o.WorkSlack) || !closeTo(got.TapTotalUM, o.Total) ||
		!closeTo(got.Final.TapWL, out.Final.TapWL) || !closeTo(got.Final.SignalWL, out.Final.SignalWL) ||
		!closeTo(got.Final.MaxCap, out.Final.MaxCap) || !closeTo(got.Final.WCP, out.Final.WCP) ||
		got.DirtyCells != o.DirtyCells {
		return 0, fmt.Errorf("served answer (slack %v, tap %v, dirty %d) differs from the checked replay (slack %v, tap %v, dirty %d)",
			got.WorkSlackPS, got.TapTotalUM, got.DirtyCells, o.WorkSlack, o.Total, o.DirtyCells)
	}
	return placer.MaxOverlap(st.Circuit), nil
}

// closeTo compares two reported quantities at 1e-9 relative.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// spanLine matches one span of obs.Snapshot.Text: indented name, duration.
var spanLine = regexp.MustCompile(`^\s+(\S+) ([0-9.]+)ms`)

// traceSpanMs sums the durations of the spans named name in a text trace;
// ok is false when the trace has no such span.
func traceSpanMs(trace, name string) (ms float64, ok bool) {
	inSpans := false
	for _, line := range bytes.Split([]byte(trace), []byte("\n")) {
		if string(line) == "spans:" {
			inSpans = true
			continue
		}
		if !inSpans {
			continue
		}
		m := spanLine.FindSubmatch(line)
		if m == nil || string(m[1]) != name {
			continue
		}
		v, err := strconv.ParseFloat(string(m[2]), 64)
		if err != nil {
			continue
		}
		ms += v
		ok = true
	}
	return ms, ok
}

// addEditLayers adds one traced edit's telemetry to acc: the eco phase spans
// and counters from the response, and the serving overhead (round trip
// minus the eco.apply span).
func addEditLayers(acc layerAcc, resp *serve.ECOResponse, roundTripSec float64) error {
	apply, ok := traceSpanMs(resp.Trace, "eco.apply")
	if !ok {
		return fmt.Errorf("response trace has no eco.apply span")
	}
	acc.add("eco.apply_ms", apply)
	acc.add("serve.overhead_ms", roundTripSec*1000-apply)
	for _, m := range []struct{ metric, span string }{
		{"eco.place_ms", "eco.place"},
		{"eco.assign_ms", "eco.assign"},
		{"eco.sched_ms", "eco.sched"},
	} {
		if v, ok := traceSpanMs(resp.Trace, m.span); ok {
			acc.add(m.metric, v)
		}
	}
	acc.add("eco.dirty_cells", float64(resp.DirtyCells))
	var counters map[string]int64
	if err := json.Unmarshal(resp.Counters, &counters); err != nil {
		return fmt.Errorf("response counters: %w", err)
	}
	if v, ok := counters["assign.patch.cycles"]; ok {
		acc.add("assign.patch.cycles", float64(v))
	}
	return nil
}
