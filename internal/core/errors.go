package core

import (
	"errors"
	"fmt"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/lp"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
)

// Kind classifies why a flow stage failed. Every error returned by Run wraps
// a *StageError carrying one of these, so callers can branch on failure mode
// (errors.As) without string-matching solver messages.
type Kind int

// Failure kinds, ordered roughly from "the instance" to "the code".
const (
	// Infeasible: the mathematical problem the stage posed has no solution
	// (unsatisfiable skew constraints, ring capacities below the flip-flop
	// count, no tapping point realizing a target). Recovery means relaxing
	// the problem, which Run attempts before reporting this.
	Infeasible Kind = iota
	// NonConverged: an iterative solver stopped short of its tolerance
	// (conjugate-gradients stagnation in the placer). The result is a
	// usable best-effort iterate.
	NonConverged
	// BudgetExceeded: a solver hit its iteration or node budget before
	// completing (simplex MaxIters, branch-and-bound MaxNodes).
	BudgetExceeded
	// InvalidInput: caller-supplied data is malformed (circuit fails
	// validation, non-physical parameters, ill-formed LP).
	InvalidInput
	// Internal: an invariant the flow itself is responsible for broke; a
	// bug, not a property of the input.
	Internal
	// Canceled: the caller explicitly fired the run's stop token. The
	// best-so-far result is valid; in non-strict mode Run returns it
	// degraded rather than erroring.
	Canceled
	// DeadlineExceeded: the run's deadline fired mid-solve. Same degraded
	// best-so-far semantics as Canceled; the distinct kind lets serving
	// layers report deadline pressure separately from user cancels.
	DeadlineExceeded
)

func (k Kind) String() string {
	switch k {
	case Infeasible:
		return "infeasible"
	case NonConverged:
		return "non-converged"
	case BudgetExceeded:
		return "budget-exceeded"
	case InvalidInput:
		return "invalid-input"
	case Internal:
		return "internal"
	case Canceled:
		return "canceled"
	case DeadlineExceeded:
		return "deadline-exceeded"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// StageError is the typed failure of one flow stage. Stage numbers follow
// Fig. 3 (1 placement, 2 max-slack skew, 3 assignment, 4 cost-driven skew,
// 5 evaluation, 6 incremental placement); Iter is the re-optimization loop
// iteration, 0 for work before the loop.
type StageError struct {
	Stage int
	Iter  int
	Kind  Kind
	Err   error
}

func (e *StageError) Error() string {
	if e.Iter > 0 {
		return fmt.Sprintf("core: stage %d (iter %d) %s: %v", e.Stage, e.Iter, e.Kind, e.Err)
	}
	return fmt.Sprintf("core: stage %d %s: %v", e.Stage, e.Kind, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// stageErr builds a *StageError, classifying err when kind is not forced.
func stageErr(stage, iter int, err error) *StageError {
	return &StageError{Stage: stage, Iter: iter, Kind: Classify(err), Err: err}
}

// Classify maps a solver error onto the taxonomy via the packages' sentinel
// errors. Unrecognized errors are Internal: every known caller-data problem
// is covered by a sentinel below, so an unclassified failure means a broken
// flow invariant. Exported for layers above the flow — e.g. internal/exp
// classifying a post-run analysis failure into the same event log Run
// writes.
func Classify(err error) Kind {
	switch {
	case err == nil:
		return Internal
	case errors.Is(err, assign.ErrInfeasible),
		errors.Is(err, skew.ErrInfeasible),
		errors.Is(err, rotary.ErrNoTap):
		return Infeasible
	case errors.Is(err, placer.ErrNonConverged):
		return NonConverged
	case errors.Is(err, lp.ErrBudget):
		return BudgetExceeded
	case errors.Is(err, lp.ErrBadProblem),
		errors.Is(err, timing.ErrCycle):
		return InvalidInput
	case errors.Is(err, stop.ErrCanceled):
		return Canceled
	case errors.Is(err, stop.ErrDeadlineExceeded):
		return DeadlineExceeded
	}
	return Internal
}

// StageEvent records one recovery or degradation action Run took instead of
// failing. Events appear in Result.Events in the order they happened, so the
// sequence reads as a log of how far the flow had to back off.
type StageEvent struct {
	Stage  int
	Iter   int
	Kind   Kind   // classification of the failure that triggered the action
	Action string // what Run did about it
	Err    error  // the underlying failure (nil for informational events)
}

func (e StageEvent) String() string {
	s := fmt.Sprintf("stage %d", e.Stage)
	if e.Iter > 0 {
		s += fmt.Sprintf(" iter %d", e.Iter)
	}
	s += fmt.Sprintf(" [%s] %s", e.Kind, e.Action)
	if e.Err != nil {
		s += fmt.Sprintf(": %v", e.Err)
	}
	return s
}
