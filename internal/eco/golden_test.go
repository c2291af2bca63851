package eco_test

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// The ECO outcome golden locks what Apply reports on a fixed delta stream —
// every Outcome field (floats as bits), the event log, the counters and the
// span tree — for both the patch arm and the scratch arm, including the
// assignment relaxation ladder, a strict failure, a stop-degraded apply, an
// all-no-op batch and an invalid delta. Regenerate with
//
//	go test ./internal/eco -run TestGoldenECO -update
var update = flag.Bool("update", false, "rewrite the ECO goldens in testdata/")

// goldenScenario is one Apply call of the locked stream. Rules arm the fault
// injector for the call only.
type goldenScenario struct {
	label  string
	deltas func(st *eco.State) []eco.Delta
	strict bool
	rules  []faultinject.Rule
}

// goldenStream builds the scenario list against a fresh base: each of the
// five ops (drawn sequence-valid by RandomDeltas from a fixed seed) applied
// one at a time, then the failure and no-op paths.
func goldenStream(t *testing.T, st *eco.State) []goldenScenario {
	t.Helper()
	c := st.Circuit
	draw := eco.RandomDeltas(rand.New(rand.NewSource(7)), c, len(st.Array.Rings), 14)
	seen := map[string]bool{}
	var ss []goldenScenario
	for i, d := range draw {
		d := d
		seen[d.Op] = true
		ss = append(ss, goldenScenario{
			label:  fmt.Sprintf("delta %d %s", i, d),
			deltas: func(*eco.State) []eco.Delta { return []eco.Delta{d} },
		})
	}
	for _, op := range []string{eco.OpMoveFF, eco.OpAddFF, eco.OpRemoveFF, eco.OpRetargetRing, eco.OpEditNet} {
		if !seen[op] {
			t.Fatalf("golden delta draw has no %s: %v", op, draw)
		}
	}
	move := func(fx, fy float64) func(st *eco.State) []eco.Delta {
		return func(st *eco.State) []eco.Delta {
			die := st.Circuit.Die
			return []eco.Delta{{Op: eco.OpMoveFF, Cell: st.FFCells[0], X: die.Lo.X + fx*die.W(), Y: die.Lo.Y + fy*die.H()}}
		}
	}
	infeasible := faultinject.Rule{Site: faultinject.SiteAssignCandidates, Call: 1,
		Err: fmt.Errorf("injected: %w", assign.ErrInfeasible)}
	return append(ss,
		goldenScenario{label: "assignment ladder", deltas: move(0.2, 0.8), rules: []faultinject.Rule{infeasible}},
		goldenScenario{label: "strict assignment failure", deltas: move(0.7, 0.1), strict: true, rules: []faultinject.Rule{infeasible}},
		goldenScenario{label: "stop after placement", deltas: move(0.6, 0.4), rules: []faultinject.Rule{{
			Site: faultinject.SiteEcoApplyCancel, Call: 2, Err: stop.ErrDeadlineExceeded}}},
		goldenScenario{label: "all no-op", deltas: func(st *eco.State) []eco.Delta {
			p := st.Circuit.Cells[st.FFCells[1]].Pos
			return []eco.Delta{{Op: eco.OpMoveFF, Cell: st.FFCells[1], X: p.X, Y: p.Y}}
		}},
		goldenScenario{label: "invalid delta", deltas: func(*eco.State) []eco.Delta {
			return []eco.Delta{{Op: eco.OpRetargetRing, Cell: st.FFCells[0], Ring: 999}}
		}},
	)
}

// renderOutcome writes every Outcome field, floats as bits.
func renderOutcome(b *strings.Builder, out *eco.Outcome) {
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	fmt.Fprintf(b, "deltas=%d noops=%d dirty_cells=%d moved=%d dirty_ffs=%d patched=%d rebuilt=%v\n",
		out.Deltas, out.NoOps, out.DirtyCells, out.MovedCells, out.DirtyFFs, out.SystemPatched, out.SystemRebuilt)
	fmt.Fprintf(b, "sched_rounds=%d work_slack=%s degraded=%v total=%s\n",
		out.SchedRounds, bits(out.WorkSlack), out.Degraded, bits(out.Total))
	for _, e := range out.Events {
		fmt.Fprintf(b, "event: %s\n", e)
	}
	fmt.Fprintf(b, "ffs=%v\n", out.FFCells)
	b.WriteString("sched=")
	for _, s := range out.Sched {
		b.WriteString(bits(s) + " ")
	}
	b.WriteString("\n")
	if a := out.Assign; a != nil {
		fmt.Fprintf(b, "ring=%v fallbacks=%v\n", a.Ring, a.Fallbacks)
		fmt.Fprintf(b, "asg total=%s maxcap=%s afd=%s\n", bits(a.Total), bits(a.MaxCap), bits(a.AvgDist))
	}
}

// renderSpans writes the span tree: names and attributes, indented by depth.
func renderSpans(b *strings.Builder, spans []*obs.SpanData, depth int) {
	for _, sp := range spans {
		fmt.Fprintf(b, "span: %s%s", strings.Repeat("  ", depth), sp.Name)
		for _, a := range sp.Attrs {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Val)
		}
		b.WriteString("\n")
		renderSpans(b, sp.Children, depth+1)
	}
}

// goldenRun applies the stream to a fresh base in one arm and renders it.
func goldenRun(t *testing.T, scratch bool) string {
	t.Helper()
	c := genCircuit(t, 300, 24, 99)
	cfg := core.Config{NumRings: 16, MaxIters: 2, Parallelism: 1}
	res, err := core.Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewECOState(c, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, sc := range goldenStream(t, st) {
		reg := obs.NewRegistry()
		ds := sc.deltas(st)
		restore := func() {}
		if len(sc.rules) > 0 {
			restore = faultinject.Enable(sc.rules...)
		}
		out, err := eco.Apply(st, ds, eco.Options{Strict: sc.strict, Scratch: scratch, Obs: reg})
		restore()
		fmt.Fprintf(&b, "== %s strict=%v\n", sc.label, sc.strict)
		if err != nil {
			fmt.Fprintf(&b, "error: %v (stop=%v infeasible=%v)\n", err, stop.IsStop(err), errors.Is(err, assign.ErrInfeasible))
		} else {
			renderOutcome(&b, out)
		}
		h := fnv.New64a()
		for _, p := range c.Positions() {
			fmt.Fprintf(h, "%x %x;", math.Float64bits(p.X), math.Float64bits(p.Y))
		}
		fmt.Fprintf(&b, "positions=%016x\n", h.Sum64())
		snap := reg.Snapshot()
		b.WriteString("counters: ")
		b.WriteString(strings.ReplaceAll(string(snap.CountersJSON()), "\n", ""))
		b.WriteString("\n")
		renderSpans(&b, snap.Spans, 0)
	}
	return b.String()
}

// TestGoldenECO locks both arms' outcomes against testdata/eco_*.golden.
func TestGoldenECO(t *testing.T) {
	for _, arm := range []struct {
		name    string
		scratch bool
	}{{"patch", false}, {"scratch", true}} {
		t.Run(arm.name, func(t *testing.T) {
			got := goldenRun(t, arm.scratch)
			path := filepath.Join("testdata", "eco_"+arm.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to record): %v", err)
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs\n  got:  %q\n  want: %q", path, i+1, gl[i], wl[i])
				}
			}
			if len(gl) != len(wl) {
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
