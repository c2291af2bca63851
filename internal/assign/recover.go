package assign

import (
	"errors"
	"fmt"
	"math"
)

// defaultK is the candidate-ring count when Problem.K is unset.
const defaultK = 6

// uniformCapacity is the default per-ring limit scaled by scale: a 1.25x
// headroom over an even split of nFF flip-flops across nRings rings, plus
// one, rounded up after scaling.
func uniformCapacity(nFF, nRings int, scale float64) []int {
	u := int(math.Ceil(float64((nFF*5/4)/nRings+1) * scale))
	caps := make([]int, nRings)
	for j := range caps {
		caps[j] = u
	}
	return caps
}

// Solver solves one assignment instance: MinCost, a MinMaxCap adapter, or a
// warm-started PatchMinCost closure.
type Solver func(*Problem) (*Assignment, error)

// Recover solves p with first and, when that fails as ErrInfeasible, walks
// the infeasibility-recovery ladder with solve on relaxed copies of p: K
// doubled (clamped to the ring count) with capacity x1.5, then every ring a
// candidate with capacity x2.25, and last the same instance with the
// nearest-point tapping fallback. relaxed is told each rung's action and the
// error that forced it before the rung runs; a nil relaxed disables the
// ladder (strict mode). A non-infeasibility error stops the ladder at once.
// The relaxed capacities scale the default headroom rule whatever
// p.Capacity was.
func Recover(p *Problem, first, solve Solver, relaxed func(action string, err error)) (*Assignment, error) {
	base := *p
	a, err := first(p)
	if err == nil || relaxed == nil || !errors.Is(err, ErrInfeasible) {
		return a, err
	}
	nFF, numRings := len(base.FFs), len(base.Array.Rings)
	k := base.K
	if k <= 0 {
		k = defaultK
	}
	k2 := min(2*k, numRings)
	rungs := []struct {
		k        int
		scale    float64
		fallback bool
		action   string
	}{
		{k2, 1.5, false, fmt.Sprintf("relaxing assignment: K widened to %d, ring capacity x1.5", k2)},
		{numRings, 2.25, false, fmt.Sprintf("relaxing assignment: all %d rings candidate, ring capacity x2.25", numRings)},
		{numRings, 2.25, true, "enabling nearest-point tapping fallback (taps may miss skew targets)"},
	}
	for _, r := range rungs {
		relaxed(r.action, err)
		q := base
		q.K, q.Capacity, q.TapFallback = r.k, uniformCapacity(nFF, numRings, r.scale), r.fallback
		if a, err = solve(&q); err == nil || !errors.Is(err, ErrInfeasible) {
			return a, err
		}
	}
	return nil, err
}
