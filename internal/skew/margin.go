package skew

import (
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/timing"
)

// The slack rule shared by the flow's stage 4 and the ECO schedule re-check:
// which sequential pairs constrain the schedule, how much of the max slack
// is reserved as working margin, and the margins tried when the reserved
// one turns out infeasible.

// WorkFrac is the fraction of the max slack reserved as timing margin while
// the cost-driven schedule chases ring phases.
const WorkFrac = 0.5

// SeqPairs runs static timing analysis on the placed circuit and maps each
// sequential pair's cell IDs to flip-flop indices through ffIdx. The
// analysis error is returned unwrapped.
func SeqPairs(c *netlist.Circuit, m timing.Model, ffIdx map[int]int) ([]SeqPair, error) {
	sta, err := timing.Analyze(c, m)
	if err != nil {
		return nil, err
	}
	pairs := make([]SeqPair, len(sta.Pairs))
	for i, p := range sta.Pairs {
		pairs[i] = SeqPair{U: ffIdx[p.From], V: ffIdx[p.To], DMax: p.DMax, DMin: p.DMin}
	}
	return pairs, nil
}

// WorkSlack is the working margin reserved out of max slack m. A negative
// max slack (a design that cannot close timing at this period) leaves no
// margin to reserve: taking a fraction would tighten the constraints past
// feasibility, so the full slack is used.
func WorkSlack(m float64) float64 {
	if m <= 0 {
		return m
	}
	return WorkFrac * m
}

// Margins is the slack-relaxation ladder starting at working margin m: the
// full margin, half of it, then none. A margin that is already zero or
// negative has nothing to relax.
func Margins(m float64) []float64 {
	if m <= 0 {
		return []float64{m}
	}
	return []float64{m, m / 2, 0}
}
