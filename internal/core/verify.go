package core

import (
	"context"
	"fmt"
	"math"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/query"
)

// Verdict is the outcome of verifying one claim.
type Verdict int

const (
	// VerdictCorrect: a generated query matches the claim.
	VerdictCorrect Verdict = iota
	// VerdictIncorrect: no query matches; the data contradicts the claim
	// and a correction is suggested.
	VerdictIncorrect
	// VerdictSkipped: verification could not be completed (no context,
	// no executable query).
	VerdictSkipped
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictCorrect:
		return "correct"
	case VerdictIncorrect:
		return "incorrect"
	case VerdictSkipped:
		return "skipped"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Outcome records everything the system produced for one claim.
type Outcome struct {
	ClaimID int
	Verdict Verdict
	// Seconds is the crowd time spent (person-seconds across the team).
	Seconds float64
	// Query is the verifying query (correct claims) or the best
	// alternative query (incorrect claims); nil when skipped.
	Query *query.Query
	// Value is Query's result.
	Value float64
	// Suggestion is the corrected value proposed for incorrect claims
	// (Example 4: "we suggest the value as a possible update").
	Suggestion    float64
	HasSuggestion bool
	// Screens is the number of property screens shown.
	Screens int
	// Label is the validated annotation fed back into training.
	Label *claims.GroundTruth
}

// VerifyClaim verifies one claim with a simulated crowd team that answers
// from the claim's ground-truth annotation (the experimental setting). See
// VerifyClaimWith for the oracle-based flow it delegates to.
func (e *Engine) VerifyClaim(ctx context.Context, c *claims.Claim, team *crowd.Team) (*Outcome, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil claim")
	}
	if c.Truth == nil {
		return nil, fmt.Errorf("core: claim %d has no ground-truth annotation to answer from", c.ID)
	}
	oracle, err := e.NewTeamOracle(team)
	if err != nil {
		return nil, err
	}
	return e.VerifyClaimWith(ctx, c, oracle)
}

// VerifyClaimWith verifies one claim through a blocking Oracle (§5.1
// flow): it starts the claim's step machine (see ClaimRun) and pumps it —
// every emitted Question is put to the oracle, every answer advances the
// machine — until the outcome is ready:
//
//  1. plan question screens from classifier candidates,
//  2. the oracle validates relation / key / attribute properties,
//     suggesting answers when no shown option is right,
//  3. formulas come from a planned formula screen (when the greedy
//     selection finds one worthwhile) plus the classifier's predictions,
//     filtered by instantiation (§4.3),
//  4. Algorithm 2 generates queries from the validated context,
//  5. the oracle confirms the proposed query on the final screen (or
//     writes it if the system found nothing),
//  6. the claim is judged by comparing the query value with the parameter.
//
// The flow works whether or not the classifiers are trained; a cold start
// simply costs the oracle more time. Interactive front ends that cannot
// block (an HTTP question/answer API, a UI event loop) drive the same
// machine directly through StartClaim / Question / Answer.
func (e *Engine) VerifyClaimWith(ctx context.Context, c *claims.Claim, oracle Oracle) (*Outcome, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil claim")
	}
	if oracle == nil {
		return nil, fmt.Errorf("core: nil oracle")
	}
	run, err := e.StartClaim(c)
	if err != nil {
		return nil, err
	}
	return PumpClaim(ctx, run, oracle)
}

// Ordering selects the claim-ordering strategy of the §6.2 comparison.
type Ordering int

const (
	// OrderILP is full Scrutinizer: batches selected by the Definition 9
	// ILP.
	OrderILP Ordering = iota
	// OrderSequential is the Sequential baseline: document order.
	OrderSequential
	// OrderGreedy is the greedy ablation of the ILP.
	OrderGreedy
	// OrderRandom is a seeded random-order ablation baseline.
	OrderRandom
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case OrderILP:
		return "ilp"
	case OrderSequential:
		return "sequential"
	case OrderGreedy:
		return "greedy"
	case OrderRandom:
		return "random"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// VerifyConfig parameterises the Algorithm 1 loop.
type VerifyConfig struct {
	// BatchSize is bu (and bl, capped by remaining claims); the paper
	// uses 100.
	BatchSize int
	// Parallelism is the number of goroutines that verify the claims of
	// one batch concurrently (claim translation, query generation and the
	// simulated question screens are all per-claim work). Batch selection
	// and classifier retraining remain the single synchronization point
	// between rounds, and per-claim crowd random streams make the results
	// bit-identical to a sequential run. <= 1 means sequential.
	Parallelism int
	// Checkers is the number of human checkers skimming each section —
	// the multiplier on SectionReadCost and the manual-cost budget
	// (Definition 8). Verify overrides it with the crowd team size; the
	// session layer sets it explicitly. <= 0 means 1.
	Checkers int
	// SectionReadCost is r(s) in seconds.
	SectionReadCost float64
	// BatchBudget is tm in seconds; 0 derives it from the batch size and
	// the manual cost (generous enough to always fit a batch).
	BatchBudget float64
	// Ordering selects ILP / sequential / greedy claim ordering.
	Ordering Ordering
	// UtilityWeight enables the Definition 9 objective variant.
	UtilityWeight float64
	// Seed drives the OrderRandom baseline.
	Seed int64
	// AfterBatch, when non-nil, observes progress after each batch
	// (used by the simulation to sample accuracy curves). It is invoked
	// synchronously at the retrain barrier and must not call back into
	// the run that triggered it.
	AfterBatch func(batch int, verified int, outcomes []*Outcome)
}

func (vc VerifyConfig) withDefaults() VerifyConfig {
	if vc.BatchSize <= 0 {
		vc.BatchSize = 100
	}
	if vc.Checkers <= 0 {
		vc.Checkers = 1
	}
	if vc.SectionReadCost < 0 {
		vc.SectionReadCost = 0
	}
	return vc
}

// Result aggregates a full document verification.
type Result struct {
	Outcomes []*Outcome
	// Seconds is total crowd person-seconds including section skimming.
	Seconds float64
	// Batches is the number of executed batches.
	Batches int
}

// Verify runs Algorithm 1: repeatedly select a batch (OptBatch), verify its
// claims with the crowd (OptQuestions + GetAnswers + Validate), retrain the
// classifiers on accumulated labels, and continue until no claims remain.
//
// It is the synchronous front end over the step-driven DocumentRun: each
// batch's claims are pumped across vc.Parallelism goroutines, every claim
// answered by its own crowd view (team.ForClaim), whose random streams
// depend only on the claim ID — so verdicts are bit-identical whatever the
// fan-out, and identical to an interactive session answering the same
// questions through the step API.
//
// Verify owns the run it starts, so ctx cancels everything: round
// boundaries, per-answer pumping, Algorithm 2 enumeration, and the retrain
// barrier itself (the run is discarded on error, so — unlike a shared
// session — there is nothing to strand by aborting mid-barrier). The
// returned error wraps ctx.Err() when cancellation stopped the run.
func (e *Engine) Verify(ctx context.Context, doc *claims.Document, team *crowd.Team, vc VerifyConfig) (*Result, error) {
	res, err := e.verifyDoc(ctx, doc, team, vc)
	obsMaybeCancelled(err)
	return res, err
}

func (e *Engine) verifyDoc(ctx context.Context, doc *claims.Document, team *crowd.Team, vc VerifyConfig) (*Result, error) {
	if doc == nil {
		return nil, fmt.Errorf("core: nil document")
	}
	if team == nil || team.Size() == 0 {
		return nil, fmt.Errorf("core: empty crowd team")
	}
	vc.Checkers = team.Size()
	dr, err := e.StartDocument(ctx, doc, vc)
	if err != nil {
		return nil, err
	}
	// Driver-owned run: let the retrain barrier observe cancellation too.
	dr.runCtx = ctx
	byID := make(map[int]*claims.Claim, len(doc.Claims))
	for _, c := range doc.Claims {
		byID[c.ID] = c
	}
	for !dr.Done() {
		if err := checkCancel(ctx); err != nil {
			return nil, err
		}
		ids := dr.BatchClaims()
		errs := make([]error, len(ids))
		runPool(len(ids), vc.Parallelism, func(i int) {
			id := ids[i]
			c := byID[id]
			if c == nil || c.Truth == nil {
				errs[i] = fmt.Errorf("core: claim %d has no ground-truth annotation to answer from", id)
				return
			}
			errs[i] = dr.Pump(ctx, id, &teamOracle{engine: e, team: team.ForClaim(id)})
		})
		// A retrain-barrier failure stops the whole run; report it
		// unwrapped, like the blocking loop did.
		if err := dr.Err(); err != nil {
			return nil, err
		}
		// Report the first per-claim error in batch order so failures
		// are deterministic too.
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("core: verifying claim %d: %w", ids[i], err)
			}
		}
	}
	return dr.Result()
}

// Accuracy scores outcomes against the generator's error injection: an
// outcome is right when the verdict matches the claim's Correct flag.
func Accuracy(doc *claims.Document, outcomes []*Outcome) float64 {
	byID := make(map[int]*claims.Claim, len(doc.Claims))
	for _, c := range doc.Claims {
		byID[c.ID] = c
	}
	total, right := 0, 0
	for _, o := range outcomes {
		c, ok := byID[o.ClaimID]
		if !ok || o.Verdict == VerdictSkipped {
			continue
		}
		total++
		if (o.Verdict == VerdictCorrect) == c.Correct {
			right++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(right) / float64(total)
}

// MeanAbsError reports the average relative error of suggestions on
// incorrect claims versus the annotated correct value; diagnostics for the
// Example 4 correction feature.
func MeanAbsError(doc *claims.Document, outcomes []*Outcome) float64 {
	byID := make(map[int]*claims.Claim, len(doc.Claims))
	for _, c := range doc.Claims {
		byID[c.ID] = c
	}
	var sum float64
	n := 0
	for _, o := range outcomes {
		c, ok := byID[o.ClaimID]
		if !ok || !o.HasSuggestion || c.Truth == nil {
			continue
		}
		scale := math.Abs(c.Truth.Value)
		if scale < 1e-12 {
			scale = 1
		}
		sum += math.Abs(o.Suggestion-c.Truth.Value) / scale
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
