package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latWindow is the sliding window of completed-job latencies the quantiles
// are computed over. Big enough that p99 is meaningful, small enough that
// /metrics stays cheap.
const latWindow = 4096

// stats is the server's operational counter set plus a latency ring. The
// counters are atomics (hot path: one Add per event); the latency ring is
// mutex-guarded (completion rate is bounded by job duration, so contention
// is negligible).
type stats struct {
	admitted         atomic.Int64
	completed        atomic.Int64
	degraded         atomic.Int64
	deadlined        atomic.Int64
	shed             atomic.Int64
	rejectedDraining atomic.Int64
	panics           atomic.Int64
	failed           atomic.Int64
	templateBuilds   atomic.Int64
	templateHits     atomic.Int64
	ecoBaseBuilds    atomic.Int64
	ecoBaseHits      atomic.Int64
	drainForced      atomic.Int64

	mu    sync.Mutex
	ring  [latWindow]float64 // milliseconds
	count int64              // total observations (ring index = count % latWindow)
}

// observe records one completed-job latency.
func (s *stats) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	s.mu.Lock()
	s.ring[s.count%latWindow] = ms
	s.count++
	s.mu.Unlock()
}

// Latency summarizes the completion-latency window.
type Latency struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// StatsSnapshot is the /metrics payload.
type StatsSnapshot struct {
	Admitted         int64 `json:"admitted"`
	Completed        int64 `json:"completed"`
	Degraded         int64 `json:"degraded"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Shed             int64 `json:"shed"`
	RejectedDraining int64 `json:"rejected_draining"`
	Panics           int64 `json:"panics"`
	Failed           int64 `json:"failed"`
	TemplateBuilds   int64 `json:"template_builds"`
	TemplateHits     int64 `json:"template_hits"`
	ECOBaseBuilds    int64 `json:"eco_base_builds"`
	ECOBaseHits      int64 `json:"eco_base_hits"`
	DrainForced      int64 `json:"drain_forced"`

	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	InFlight   int  `json:"in_flight"`
	Draining   bool `json:"draining"`

	Latency Latency `json:"latency"`
}

func (s *stats) snapshot() *StatsSnapshot {
	snap := &StatsSnapshot{
		Admitted:         s.admitted.Load(),
		Completed:        s.completed.Load(),
		Degraded:         s.degraded.Load(),
		DeadlineExceeded: s.deadlined.Load(),
		Shed:             s.shed.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
		Panics:           s.panics.Load(),
		Failed:           s.failed.Load(),
		TemplateBuilds:   s.templateBuilds.Load(),
		TemplateHits:     s.templateHits.Load(),
		ECOBaseBuilds:    s.ecoBaseBuilds.Load(),
		ECOBaseHits:      s.ecoBaseHits.Load(),
		DrainForced:      s.drainForced.Load(),
	}
	s.mu.Lock()
	n := s.count
	if n > latWindow {
		n = latWindow
	}
	lats := make([]float64, n)
	copy(lats, s.ring[:n])
	snap.Latency.Count = s.count
	s.mu.Unlock()
	if len(lats) > 0 {
		sort.Float64s(lats)
		snap.Latency.P50MS = quantile(lats, 0.50)
		snap.Latency.P90MS = quantile(lats, 0.90)
		snap.Latency.P99MS = quantile(lats, 0.99)
		snap.Latency.MaxMS = lats[len(lats)-1]
	}
	return snap
}

// quantile reads the q-th quantile from a sorted sample (nearest-rank:
// the smallest value with at least ceil(q*n) observations at or below it).
// int(q*n) would be the (one-too-high) rank above it for most q — at n=100
// it reads p99 from the largest sample instead of the 99th — and collapses
// to the maximum for every q at n=1.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
