// Package crowd simulates the team of human domain experts that Scrutinizer
// coordinates. Workers answer the planner's question screens; their time
// consumption follows the §5.1 cost model (vp, vf, sp, sf), scaled by a
// per-worker speed factor, and their reliability by a per-worker accuracy.
// Majority voting over three workers reproduces the aggregation the paper
// uses in the user study ("with a simple majority voting across any subset
// of three checkers, our system obtains 100% accuracy").
//
// This package substitutes the professional IEA fact checkers of the
// original deployment; see DESIGN.md.
package crowd

import (
	"fmt"
	"math/rand"

	"github.com/repro/scrutinizer/internal/planner"
)

// Answer is a worker's response to one question screen.
type Answer struct {
	// Value is the chosen (or suggested) property value.
	Value string
	// Suggested reports whether the worker had to type the answer
	// because no displayed option was correct.
	Suggested bool
	// Seconds is the time the worker spent on the screen.
	Seconds float64
	// OptionsRead is how many displayed options the worker scanned.
	OptionsRead int
}

// Worker is one simulated domain expert.
type Worker struct {
	// Name identifies the worker in reports (M1, S3, ...).
	Name string
	// Speed scales all time costs (1.0 = the cost model's reference
	// expert; < 1 is faster).
	Speed float64
	// Accuracy is the probability of judging one option correctly
	// (both recognising the true answer and rejecting wrong ones).
	Accuracy float64

	seed int64
	rng  *rand.Rand
}

// NewWorker creates a worker with its own deterministic random stream.
func NewWorker(name string, speed, accuracy float64, seed int64) (*Worker, error) {
	if speed <= 0 {
		return nil, fmt.Errorf("crowd: worker %q speed must be positive, got %g", name, speed)
	}
	if accuracy < 0 || accuracy > 1 {
		return nil, fmt.Errorf("crowd: worker %q accuracy must be in [0,1], got %g", name, accuracy)
	}
	return &Worker{
		Name:     name,
		Speed:    speed,
		Accuracy: accuracy,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// mixSeed folds a claim ID into a worker seed with a splitmix64-style
// finaliser, so per-claim streams are decorrelated from each other and from
// the worker's base stream.
func mixSeed(seed int64, claimID int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(claimID+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ForClaim returns a copy of the worker whose random stream depends only on
// the worker's base seed and the claim ID — not on how many questions the
// worker answered before. Per-claim streams make a worker's answers for one
// claim independent of claim ordering, which is what lets the engine verify
// the claims of a batch concurrently and still produce results identical to
// a sequential pass.
func (w *Worker) ForClaim(claimID int) *Worker {
	return &Worker{
		Name:     w.Name,
		Speed:    w.Speed,
		Accuracy: w.Accuracy,
		seed:     w.seed,
		rng:      rand.New(rand.NewSource(mixSeed(w.seed, claimID))),
	}
}

// AnswerScreen simulates the worker reading a property screen top-to-bottom
// (the reading model behind Theorem 2): each displayed option is judged at
// cost vp; if the true answer is displayed and recognised, it is selected;
// otherwise the worker suggests an answer at cost sp. A worker who misjudges
// may select a wrong option or suggest a spurious value.
func (w *Worker) AnswerScreen(options []planner.Option, truth string, cm planner.CostModel) Answer {
	var ans Answer
	for i, opt := range options {
		ans.OptionsRead = i + 1
		ans.Seconds += float64(cm.VerifyProperty * w.Speed)
		correctJudgement := w.rng.Float64() < w.Accuracy
		if opt.Value == truth {
			if correctJudgement {
				ans.Value = opt.Value
				return ans
			}
			// Missed the true answer; keep reading.
			continue
		}
		if !correctJudgement {
			// Wrongly accepted an incorrect option.
			ans.Value = opt.Value
			return ans
		}
	}
	// Nothing accepted: suggest. An accurate worker suggests the truth.
	ans.Seconds += float64(cm.SuggestProperty * w.Speed)
	ans.Suggested = true
	if w.rng.Float64() < w.Accuracy {
		ans.Value = truth
	} else {
		ans.Value = truth + "?" // a plausible but wrong suggestion
	}
	return ans
}

// AnswerFinal simulates the final screen showing full query candidates:
// each is judged at cost vf; if the correct query is displayed and
// recognised it is confirmed, otherwise the worker writes the query at cost
// sf.
func (w *Worker) AnswerFinal(candidates []string, truth string, cm planner.CostModel) Answer {
	var ans Answer
	for i, cand := range candidates {
		ans.OptionsRead = i + 1
		ans.Seconds += float64(cm.VerifyFull * w.Speed)
		correctJudgement := w.rng.Float64() < w.Accuracy
		if cand == truth {
			if correctJudgement {
				ans.Value = cand
				return ans
			}
			continue
		}
		if !correctJudgement {
			ans.Value = cand
			return ans
		}
	}
	ans.Seconds += float64(cm.SuggestFull * w.Speed)
	ans.Suggested = true
	if w.rng.Float64() < w.Accuracy {
		ans.Value = truth
	} else {
		ans.Value = truth + "?"
	}
	return ans
}

// ManualVerify simulates the Manual baseline: the worker writes the
// verifying query from scratch (cost sf) and judges the claim.
func (w *Worker) ManualVerify(truth string, cm planner.CostModel) Answer {
	ans := Answer{Seconds: cm.SuggestFull * w.Speed, Suggested: true}
	if w.rng.Float64() < w.Accuracy {
		ans.Value = truth
	} else {
		ans.Value = truth + "?"
	}
	return ans
}

// Team is an ordered set of workers answering in parallel.
type Team struct {
	Workers []*Worker
}

// NewTeam builds n workers named with the given prefix, with per-worker
// speed/accuracy jitter drawn deterministically from seed. Speeds spread
// ±25% around 1.0 and accuracies sit in [base-0.03, base+0.02] clamped to
// [0,1], mimicking the spread between the user study's checkers.
func NewTeam(prefix string, n int, baseAccuracy float64, seed int64) (*Team, error) {
	if n <= 0 {
		return nil, fmt.Errorf("crowd: team size must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Team{}
	for i := 0; i < n; i++ {
		speed := 0.75 + float64(rng.Float64()*0.5)
		acc := baseAccuracy - 0.03 + float64(rng.Float64()*0.05)
		if acc < 0 {
			acc = 0
		}
		if acc > 1 {
			acc = 1
		}
		w, err := NewWorker(fmt.Sprintf("%s%d", prefix, i+1), speed, acc, rng.Int63())
		if err != nil {
			return nil, err
		}
		t.Workers = append(t.Workers, w)
	}
	return t, nil
}

// Size returns the number of workers.
func (t *Team) Size() int { return len(t.Workers) }

// ForClaim derives the team view for one claim: the same workers (names,
// speeds, accuracies), each with a fresh random stream seeded from the
// worker's base seed and the claim ID. Two calls with the same claim ID
// return teams that answer identically, regardless of what either team was
// asked in between — the determinism contract behind parallel batch
// verification.
func (t *Team) ForClaim(claimID int) *Team {
	out := &Team{Workers: make([]*Worker, len(t.Workers))}
	for i, w := range t.Workers {
		out.Workers[i] = w.ForClaim(claimID)
	}
	return out
}

// Vote aggregates worker answers by majority (ties broken by the earliest
// worker's answer, mirroring "any subset of three checkers"). It returns the
// winning value and the total person-seconds spent.
func Vote(answers []Answer) (value string, totalSeconds float64) {
	counts := make(map[string]int, len(answers))
	for _, a := range answers {
		counts[a.Value]++
		totalSeconds += a.Seconds
	}
	bestCount := -1
	for _, a := range answers { // iterate in worker order for determinism
		if c := counts[a.Value]; c > bestCount {
			bestCount = c
			value = a.Value
		}
	}
	return value, totalSeconds
}

// AskScreen has every worker answer the screen and majority-votes the
// result.
func (t *Team) AskScreen(options []planner.Option, truth string, cm planner.CostModel) (string, float64) {
	answers := make([]Answer, len(t.Workers))
	for i, w := range t.Workers {
		answers[i] = w.AnswerScreen(options, truth, cm)
	}
	return Vote(answers)
}

// AskFinal has every worker answer the final query screen and majority-votes
// the result.
func (t *Team) AskFinal(candidates []string, truth string, cm planner.CostModel) (string, float64) {
	answers := make([]Answer, len(t.Workers))
	for i, w := range t.Workers {
		answers[i] = w.AnswerFinal(candidates, truth, cm)
	}
	return Vote(answers)
}
