package main

import (
	"fmt"
	"runtime"
	"time"
)

// minRounds is the fewest rounds an end-to-end run makes; each operation's
// time is the median of its rounds. Rounds of one seed's inputs differ by a
// few percent, while two seeds' inputs differ by far more, so a run spends
// its time on more seeded circuits rather than on more rounds.
const minRounds = 2

// meter times one call: wall and CPU seconds and, when armed, the Go heap
// allocation and GC cycles during it.
type meter struct {
	wall, cpu float64
	mem       layerAcc // nil: Go runtime deltas not measured
}

// time runs f under the meter. Only f is measured; an operation's set-up
// and output checks stay outside.
func (m *meter) time(f func()) {
	var before runtime.MemStats
	if m.mem != nil {
		runtime.ReadMemStats(&before)
	}
	c0 := cpuSeconds()
	t0 := time.Now()
	f()
	m.wall = time.Since(t0).Seconds()
	m.cpu = cpuSeconds() - c0
	if m.mem != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		m.mem.add("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		m.mem.add("go.gc_cycles", float64(after.NumGC-before.NumGC))
	}
}

// opFunc runs operation i once: it times the call itself through m, checks
// the output afterwards, and, when traced, adds the call's per-layer values
// to acc. A non-nil error marks the operation failed.
type opFunc func(i int, traced bool, m *meter, acc layerAcc) error

// rounds is what the timed rounds of a run measured.
type rounds struct {
	plainWall, plainCPU [][]float64 // per operation, one sample per untraced round
	tracedWall          [][]float64 // per operation, one sample per traced round
	accs                []layerAcc  // one per round: traced layers, or Go runtime deltas
	attempted, failed   int
}

// runRounds runs operations 0..n-1 in order, round after round, until the
// run's seconds are used and at least minRounds rounds are done. A traced
// run alternates untraced and traced rounds (so at least one of each); its
// untraced rounds measure the Go runtime deltas, the traced ones the
// layers.
func runRounds(o options, n int, op opFunc) *rounds {
	r := &rounds{
		plainWall:  make([][]float64, n),
		plainCPU:   make([][]float64, n),
		tracedWall: make([][]float64, n),
	}
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		traced := o.Trace && round%2 == 1
		acc := layerAcc{}
		var wall float64
		for i := 0; i < n; i++ {
			m := &meter{}
			if o.Trace && !traced {
				m.mem = acc
			}
			err := op(i, traced, m, acc)
			r.attempted++
			wall += m.wall
			if err != nil {
				r.failed++
				fmt.Fprintf(o.Log, "FAIL op %d round %d: %v\n", i, round, err)
				continue
			}
			if traced {
				r.tracedWall[i] = append(r.tracedWall[i], m.wall)
			} else {
				r.plainWall[i] = append(r.plainWall[i], m.wall)
				r.plainCPU[i] = append(r.plainCPU[i], m.cpu)
			}
		}
		r.accs = append(r.accs, acc)
		fmt.Fprintf(o.Log, "round %d traced=%v: %d ops, %.3fs\n", round, traced, n, wall)
	}
	return r
}

// opMedians is each operation's median sample, skipping operations with
// none (every call failed).
func opMedians(samples [][]float64) []float64 {
	var out []float64
	for _, s := range samples {
		if len(s) > 0 {
			out = append(out, median(s))
		}
	}
	return out
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// putTiming records the end-to-end timing metrics: flow_s and flow_cpu_s
// add up the operations' median times (one pass over the workload), and
// the percentiles rank the operations' median latencies.
func (r *rounds) putTiming(m map[string]float64) {
	wall := opMedians(r.plainWall)
	m["flow_s"] = sum(wall)
	m["flow_cpu_s"] = sum(opMedians(r.plainCPU))
	ms := make([]float64, len(wall))
	for i, w := range wall {
		ms[i] = w * 1000
	}
	m["op_p50_ms"] = nearestRank(ms, 0.50)
	m["op_p75_ms"] = nearestRank(ms, 0.75)
}

// overhead is the traced rounds' time over the untraced rounds' time, less
// one, over the operations measured both ways.
func (r *rounds) overhead() float64 {
	var plain, traced float64
	for i := range r.plainWall {
		if len(r.plainWall[i]) > 0 && len(r.tracedWall[i]) > 0 {
			plain += median(r.plainWall[i])
			traced += median(r.tracedWall[i])
		}
	}
	return traced/plain - 1
}
